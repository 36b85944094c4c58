// Dual-Caches (section 3.3): the proxy cache is divided into a Push
// Cache (PC) managed by SUB and an Access Cache (AC) managed by GD*.
//
//  * DC-FP  — fixed 50/50 partition; a PC page is moved into AC on its
//    first access (possibly triggering an AC replacement).
//  * DC-AP  — adaptive partition: a PC hit relabels the page's storage
//    as AC instead of moving it, and a push that SUB cannot place may
//    claim AC pages that have not been referenced since the last AC
//    replacement (the "Placing in DC-AP" algorithm).
//  * DC-LAP — DC-AP with the PC fraction bounded (default [25%, 75%]);
//    re-partitions that would violate the bounds fall back to the
//    fixed-partition behaviour.
#pragma once

#include "pscd/cache/strategy.h"
#include "pscd/cache/value_cache.h"

namespace pscd {

enum class PartitionMode { kFixed, kAdaptive, kLimitedAdaptive };

struct DualCacheConfig {
  PartitionMode mode = PartitionMode::kFixed;
  double initialPcFraction = 0.5;
  /// Bounds on the PC fraction; only used by kLimitedAdaptive.
  double minPcFraction = 0.25;
  double maxPcFraction = 0.75;
  /// beta of the AC-side GD*.
  double beta = 1.0;
};

class DualCacheStrategy final : public DistributionStrategy {
 public:
  DualCacheStrategy(Bytes capacity, double fetchCost,
                    const DualCacheConfig& config);

  bool pushCapable() const override { return true; }
  PushOutcome onPush(const PushContext& ctx) override;
  RequestOutcome onRequest(const RequestContext& ctx) override;
  std::optional<Version> cachedVersion(PageId page) const override {
    const auto* e = pc_.find(page);
    if (!e) e = ac_.find(page);
    return e ? std::optional<Version>(e->version) : std::nullopt;
  }
  Bytes usedBytes() const override { return pc_.used() + ac_.used(); }
  Bytes capacityBytes() const override { return totalCapacity_; }
  void checkInvariants() const override;

  const ValueCache& pushCache() const { return pc_; }
  const ValueCache& accessCache() const { return ac_; }
  double inflation() const { return inflation_; }
  SimTime lastAcReplacement() const { return lastAcReplacement_; }

 private:
  /// Classic GD* insert into AC: evicts by value until the page fits,
  /// updating L and the last-replacement timestamp. False when the page
  /// exceeds AC's capacity.
  bool acForceInsert(CacheEntry entry, SimTime now);
  /// SUB insert into PC; false when refused.
  bool pcInsert(const CacheEntry& entry);
  /// DC-AP placing algorithm: claim idle AC pages' storage for PC so
  /// that `size` more bytes fit. False when infeasible (or would break
  /// the LAP bounds).
  bool claimFromAccessCache(Bytes size);
  /// Shift `size` bytes of capacity PC -> AC if bounds allow.
  bool shiftBudgetToAc(Bytes size);

  DualCacheConfig config_;
  Bytes totalCapacity_;
  double fetchCost_;
  ValueCache pc_;
  ValueCache ac_;
  double inflation_ = 0.0;            // L of the AC-side GD*
  SimTime lastAcReplacement_ = -1.0;  // time of the last AC eviction
};

}  // namespace pscd
