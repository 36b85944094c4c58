#include "pscd/cache/sub_strategy.h"

#include <stdexcept>

#include "pscd/util/hot.h"

namespace pscd {

SubStrategy::SubStrategy(Bytes capacity, double fetchCost)
    : fetchCost_(fetchCost), cache_(capacity) {
  if (fetchCost <= 0) {
    throw std::invalid_argument("SubStrategy: fetchCost must be > 0");
  }
}

PSCD_HOT PushOutcome SubStrategy::onPush(const PushContext& ctx) {
  CacheEntry entry;
  if (const auto prior = cache_.erase(ctx.page)) entry = *prior;
  entry.page = ctx.page;
  entry.version = ctx.version;
  entry.size = ctx.size;
  entry.subCount = ctx.subCount;
  // SUB may decide not to store the page when the candidate pages
  // (those with smaller value) cannot free enough space.
  const double v = subValue(entry, fetchCost_);
  if (const auto evicted = cache_.tryEvictLowerThan(v, ctx.size)) {
    cache_.insertNoEvict(entry, v);
    return {true};
  }
  return {false};
}

PSCD_HOT RequestOutcome SubStrategy::onRequest(const RequestContext& ctx) {
  RequestOutcome out;
  if (const auto* cached = cache_.find(ctx.page)) {
    if (cached->version == ctx.latestVersion) {
      cache_.recordAccess(ctx.page, ctx.now);  // bookkeeping only
      out.hit = true;
      return out;
    }
    // Stale copy: miss. The copy is left in place; the next push of the
    // page will refresh it (SUB never reacts to accesses).
    out.stale = true;
  }
  // Push-time-only strategy: fetch and forward without caching.
  return out;
}

}  // namespace pscd
