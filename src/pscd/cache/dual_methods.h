// DM — Dual-Methods (section 3.3): a single shared cache in which the
// push-time placement module runs SUB (eviction ordered by the
// subscription value) and the access-time module runs classic GD*
// (eviction ordered by the access value). Each cached page therefore
// carries two values, and each module considers only its own ordering —
// which is exactly the overlap problem that motivates the Dual-Caches
// schemes.
#pragma once

#include <set>
#include <utility>

#include "pscd/cache/strategy.h"
#include "pscd/cache/value_cache.h"

namespace pscd {

/// The pages live in one ValueCache ordered by the GD* value; a set of
/// (SUB value, page) keys orders the same pages for the push module.
class DualMethodsStrategy final : public DistributionStrategy {
 public:
  DualMethodsStrategy(Bytes capacity, double fetchCost, double beta);

  bool pushCapable() const override { return true; }
  PushOutcome onPush(const PushContext& ctx) override;
  RequestOutcome onRequest(const RequestContext& ctx) override;
  std::optional<Version> cachedVersion(PageId page) const override {
    const auto* e = cache_.find(page);
    return e ? std::optional<Version>(e->version) : std::nullopt;
  }
  Bytes usedBytes() const override { return cache_.used(); }
  Bytes capacityBytes() const override { return cache_.capacity(); }
  void checkInvariants() const override;

  std::size_t size() const { return cache_.size(); }
  double inflation() const { return inflation_; }

 private:
  friend class InvariantCorrupter;  // test-only state corruption hook

  using SubKey = std::pair<double, PageId>;

  SubKey subKey(const CacheEntry& e) const {
    return {subValue(e, fetchCost_), e.page};
  }
  /// Stores a page that fits, valued by GD* under the current L.
  void store(const CacheEntry& entry);

  double fetchCost_;
  double beta_;
  double inflation_ = 0.0;     // L of the access-time GD* module
  ValueCache cache_;           // GD* order (access module)
  std::set<SubKey> subOrder_;  // SUB order (push module)
};

}  // namespace pscd
