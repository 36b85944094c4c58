#include "pscd/cache/oracle_strategy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace pscd {

OracleStrategy::OracleStrategy(Bytes capacity, RequestSchedule schedule)
    : cache_(capacity), schedule_(std::move(schedule)) {
  for (const auto& [page, times] : schedule_.times) {
    if (!std::is_sorted(times.begin(), times.end())) {
      throw std::invalid_argument("OracleStrategy: schedule not sorted");
    }
  }
}

SimTime OracleStrategy::nextUse(PageId page, SimTime now) const {
  const auto it = schedule_.times.find(page);
  if (it == schedule_.times.end()) {
    return std::numeric_limits<SimTime>::infinity();
  }
  const auto& times = it->second;
  const auto next = std::upper_bound(times.begin(), times.end(), now);
  return next == times.end() ? std::numeric_limits<SimTime>::infinity()
                             : *next;
}

double OracleStrategy::value(PageId page, SimTime now) const {
  const SimTime next = nextUse(page, now);
  if (std::isinf(next)) return 0.0;
  return 1.0 / std::max(next - now, 1e-9);
}

void OracleStrategy::refreshValues(SimTime now) {
  std::vector<std::pair<PageId, double>> updates;
  cache_.forEach([&](const ValueCache::StoredEntry& e) {
    const double v = value(e.page, now);
    // pscd-lint: allow(float-compare) exact compare only skips no-op updates
    if (v != e.value) updates.emplace_back(e.page, v);
  });
  for (const auto& [page, v] : updates) cache_.updateValue(page, v);
}

bool OracleStrategy::insert(const CacheEntry& entry, SimTime now) {
  const double v = value(entry.page, now);
  if (v <= 0.0) return false;  // never requested again: don't store
  if (const auto evicted = cache_.tryEvictLowerThan(v, entry.size)) {
    cache_.insertNoEvict(entry, v);
    return true;
  }
  return false;
}

PushOutcome OracleStrategy::onPush(const PushContext& ctx) {
  refreshValues(ctx.now);
  CacheEntry entry;
  if (const auto prior = cache_.erase(ctx.page)) entry = *prior;
  entry.page = ctx.page;
  entry.version = ctx.version;
  entry.size = ctx.size;
  entry.subCount = ctx.subCount;
  return {insert(entry, ctx.now)};
}

RequestOutcome OracleStrategy::onRequest(const RequestContext& ctx) {
  refreshValues(ctx.now);
  RequestOutcome out;
  if (const auto* cached = cache_.find(ctx.page)) {
    if (cached->version == ctx.latestVersion) {
      cache_.recordAccess(ctx.page, ctx.now);
      // Re-evaluate against the request after this one.
      cache_.updateValue(ctx.page, value(ctx.page, ctx.now));
      out.hit = true;
      return out;
    }
    out.stale = true;
  }
  CacheEntry entry;
  if (const auto prior = cache_.erase(ctx.page)) entry = *prior;
  entry.page = ctx.page;
  entry.version = ctx.latestVersion;
  entry.size = ctx.size;
  entry.subCount = ctx.subCount;
  ++entry.accessCount;
  entry.lastAccess = ctx.now;
  out.storedAfterMiss = insert(entry, ctx.now);
  return out;
}

}  // namespace pscd
