// SUB (section 3.2): push-time-only placement driven purely by
// subscription matching. Page value is V(p) = f_S(p) * c(p) / s(p)
// (eq. 2) where f_S is the number of matching subscriptions at the
// proxy. On a cache miss the requested page is fetched and forwarded to
// the user WITHOUT being cached locally.
#pragma once

#include "pscd/cache/strategy.h"
#include "pscd/cache/value_cache.h"

namespace pscd {

class SubStrategy final : public DistributionStrategy {
 public:
  SubStrategy(Bytes capacity, double fetchCost);

  bool pushCapable() const override { return true; }
  PushOutcome onPush(const PushContext& ctx) override;
  RequestOutcome onRequest(const RequestContext& ctx) override;
  std::optional<Version> cachedVersion(PageId page) const override {
    const auto* e = cache_.find(page);
    return e ? std::optional<Version>(e->version) : std::nullopt;
  }
  Bytes usedBytes() const override { return cache_.used(); }
  Bytes capacityBytes() const override { return cache_.capacity(); }
  void checkInvariants() const override { cache_.checkInvariants(); }

  const ValueCache& cache() const { return cache_; }

 private:
  friend class InvariantCorrupter;  // test-only state corruption hook

  double fetchCost_;
  ValueCache cache_;
};

}  // namespace pscd
