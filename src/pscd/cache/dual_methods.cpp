#include "pscd/cache/dual_methods.h"

#include <cmath>
#include <stdexcept>

#include "pscd/util/check.h"
#include "pscd/util/hot.h"

namespace pscd {

DualMethodsStrategy::DualMethodsStrategy(Bytes capacity, double fetchCost,
                                         double beta)
    : fetchCost_(fetchCost), beta_(beta), cache_(capacity) {
  if (fetchCost <= 0 || beta <= 0) {
    throw std::invalid_argument("DualMethodsStrategy: bad fetchCost/beta");
  }
}

PSCD_HOT void DualMethodsStrategy::store(const CacheEntry& entry) {
  cache_.insertNoEvict(entry, gdStarValue(entry, fetchCost_, beta_,
                                          inflation_));
  subOrder_.insert(subKey(entry));
}

PSCD_HOT PushOutcome DualMethodsStrategy::onPush(const PushContext& ctx) {
  CacheEntry entry;
  if (const auto prior = cache_.erase(ctx.page)) {
    entry = *prior;  // refresh in place, keep access history
    subOrder_.erase(subKey(entry));
  }
  entry.page = ctx.page;
  entry.version = ctx.version;
  entry.size = ctx.size;
  entry.subCount = ctx.subCount;
  const double value = subValue(entry, fetchCost_);

  // SUB admission over the subscription ordering; push-time evictions
  // do not advance L.
  Bytes reclaimable = cache_.free();
  bool feasible = reclaimable >= ctx.size;
  for (auto it = subOrder_.begin();
       !feasible && it != subOrder_.end() && it->first < value; ++it) {
    reclaimable += cache_.find(it->second)->size;
    feasible = reclaimable >= ctx.size;
  }
  if (!feasible) return {false};
  while (cache_.free() < ctx.size) {
    const auto low = subOrder_.begin();
    PSCD_DCHECK(low != subOrder_.end() && low->first < value)
        << "DualMethodsStrategy: SUB admission evicting non-candidate";
    cache_.erase(low->second);
    subOrder_.erase(low);
  }
  store(entry);
  return {true};
}

PSCD_HOT RequestOutcome DualMethodsStrategy::onRequest(
    const RequestContext& ctx) {
  RequestOutcome out;
  CacheEntry entry;
  if (const auto* cached = cache_.find(ctx.page)) {
    if (cached->version == ctx.latestVersion) {
      // Hit: the access module re-evaluates under the current L.
      const auto& hit = cache_.recordAccess(*cached, ctx.now);
      cache_.updateValue(hit, gdStarValue(hit, fetchCost_, beta_, inflation_));
      out.hit = true;
      return out;
    }
    out.stale = true;
    entry = *cache_.erase(ctx.page);
    subOrder_.erase(subKey(entry));
  }
  // Miss: classic GD* placement over the access ordering (always admit);
  // L ends up as the value of the page evicted last.
  const auto evicted = cache_.evictFor(ctx.size);
  if (!evicted) return out;
  for (const auto& victim : *evicted) subOrder_.erase(subKey(victim));
  if (!evicted->empty()) inflation_ = evicted->back().value;
  entry.page = ctx.page;
  entry.version = ctx.latestVersion;
  entry.size = ctx.size;
  entry.subCount = ctx.subCount;
  ++entry.accessCount;
  entry.lastAccess = ctx.now;
  store(entry);
  out.storedAfterMiss = true;
  return out;
}

void DualMethodsStrategy::checkInvariants() const {
  // Finite GD* values and the byte accounting are the cache's checks.
  cache_.checkInvariants();
  PSCD_CHECK_EQ(subOrder_.size(), cache_.size())
      << "DualMethodsStrategy: SUB order size mismatch";
  cache_.forEach([this](const ValueCache::StoredEntry& e) {
    const SubKey key = subKey(e);
    PSCD_CHECK(std::isfinite(key.first))
        << "DualMethodsStrategy: non-finite SUB value for page " << e.page;
    PSCD_CHECK(subOrder_.contains(key))
        << "DualMethodsStrategy: SUB order missing page " << e.page;
  });
  PSCD_CHECK(std::isfinite(inflation_) && inflation_ >= 0.0)
      << "DualMethodsStrategy: bad inflation value L";
}

}  // namespace pscd
