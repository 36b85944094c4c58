#include "pscd/cache/lru_strategy.h"

namespace pscd {

RequestOutcome LruStrategy::onRequest(const RequestContext& ctx) {
  RequestOutcome out;
  if (const auto* cached = cache_.find(ctx.page)) {
    if (cached->version == ctx.latestVersion) {
      cache_.updateValue(cache_.recordAccess(*cached, ctx.now),
                         static_cast<double>(++ticks_));
      out.hit = true;
      return out;
    }
    // Stale: drop and refetch.
    out.stale = true;
    cache_.erase(ctx.page);
  }
  if (!cache_.evictFor(ctx.size)) return out;  // larger than the cache
  CacheEntry entry;
  entry.page = ctx.page;
  entry.version = ctx.latestVersion;
  entry.size = ctx.size;
  entry.subCount = ctx.subCount;
  entry.accessCount = 1;
  entry.lastAccess = ctx.now;
  cache_.insertNoEvict(entry, static_cast<double>(++ticks_));
  out.storedAfterMiss = true;
  return out;
}

}  // namespace pscd
