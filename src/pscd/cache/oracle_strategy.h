// Clairvoyant upper bound (not in the paper): a Belady-style strategy
// that knows the proxy's full future request schedule. At any decision
// point a page's value is the reciprocal of the time until its next
// request for the *current* version; eviction removes the page whose
// next use is farthest away, and pushes are admitted exactly when the
// page will be requested again. No online strategy can beat it, so it
// bounds how much of SG2/SR's gap to 100% is closable at a given
// capacity (bench_ablation_oracle).
#pragma once

#include <unordered_map>
#include <vector>

#include "pscd/cache/strategy.h"
#include "pscd/cache/value_cache.h"

namespace pscd {

/// Future request times of one proxy, per page, sorted ascending.
struct RequestSchedule {
  std::unordered_map<PageId, std::vector<SimTime>> times;
};

class OracleStrategy final : public DistributionStrategy {
 public:
  /// The schedule must contain every request this proxy will receive;
  /// requests must then be replayed in nondecreasing time order.
  OracleStrategy(Bytes capacity, RequestSchedule schedule);

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

 private:
  /// Time of the next request of `page` strictly after `now`
  /// (+infinity when there is none).
  SimTime nextUse(PageId page, SimTime now) const;
  /// Value of caching the page now: 1 / (nextUse - now).
  double value(PageId page, SimTime now) const;
  /// Re-keys all cached pages whose next use has passed. The cache is
  /// small, so a full refresh per event is affordable and keeps the
  /// eviction order exact.
  void refreshValues(SimTime now);
  bool insert(const CacheEntry& entry, SimTime now);

  ValueCache cache_;
  RequestSchedule schedule_;
};

}  // namespace pscd
