// Classic LRU web cache, provided as an extra access-time-only baseline
// for the ablation benches (the paper adopts GD* because it beats LRU,
// GDS and LFU-DA in Jin & Bestavros's study; bench_ablation_baselines
// re-checks that premise on our workload).
#pragma once

#include <cstdint>

#include "pscd/cache/strategy.h"
#include "pscd/cache/value_cache.h"

namespace pscd {

/// A page's value is the tick of its last touch (insert or hit), so
/// ValueCache::evictFor removes the least recently used page first.
class LruStrategy final : public DistributionStrategy {
 public:
  explicit LruStrategy(Bytes capacity) : cache_(capacity) {}

  bool pushCapable() const override { return false; }
  PushOutcome onPush(const PushContext&) override { return {false}; }
  RequestOutcome onRequest(const RequestContext& ctx) override;
  std::optional<Version> cachedVersion(PageId page) const override {
    const auto* e = cache_.find(page);
    return e ? std::optional<Version>(e->version) : std::nullopt;
  }
  Bytes usedBytes() const override { return cache_.used(); }
  Bytes capacityBytes() const override { return cache_.capacity(); }
  void checkInvariants() const override { cache_.checkInvariants(); }

 private:
  friend class InvariantCorrupter;  // test-only state corruption hook

  ValueCache cache_;
  std::uint64_t ticks_ = 0;  // touches so far
};

}  // namespace pscd
