// Linear-scan reference models for the replacement strategies. Each
// mirrors the *specified* behaviour of its production counterpart —
// same value formulas, same admission rules, same (value, page)
// eviction tie-break — but stores entries in a flat vector and finds
// every eviction victim with a full scan, where production keeps
// ValueCache's heap (plus DualMethodsStrategy's std::set for its SUB
// order). Each model writes its value formulas out on its own instead
// of sharing production's, so a wrong formula shows as a divergence.
// They implement DistributionStrategy so the lockstep driver can
// compare push/request outcomes and byte accounting step by step.
#pragma once

#include <unordered_map>
#include <vector>

#include "pscd/cache/entry.h"
#include "pscd/cache/gds_family.h"
#include "pscd/cache/strategy.h"

namespace pscd {

/// Reference LRU: recency tracked with a monotonic touch counter, the
/// victim is the entry with the smallest counter.
class ReferenceLruStrategy final : public DistributionStrategy {
 public:
  explicit ReferenceLruStrategy(Bytes capacity) : capacity_(capacity) {}

  bool pushCapable() const override { return false; }
  PushOutcome onPush(const PushContext&) override { return {false}; }
  RequestOutcome onRequest(const RequestContext& ctx) override;
  std::optional<Version> cachedVersion(PageId page) const override {
    for (const Slot& s : slots_) {
      if (s.entry.page == page) return s.entry.version;
    }
    return std::nullopt;
  }
  Bytes usedBytes() const override;
  Bytes capacityBytes() const override { return capacity_; }

 private:
  struct Slot {
    CacheEntry entry;
    std::uint64_t touched = 0;
  };

  Bytes capacity_;
  std::uint64_t clock_ = 0;
  std::vector<Slot> slots_;
};

/// Reference for the whole GreedyDual* family (GD*, SG1, SG2, SR, GDS,
/// LFU-DA): identical GdsFamilyConfig semantics, flat-vector storage.
class ReferenceGdsFamilyStrategy final : public DistributionStrategy {
 public:
  ReferenceGdsFamilyStrategy(Bytes capacity, double fetchCost,
                             const GdsFamilyConfig& config);

  bool pushCapable() const override { return config_.pushEnabled; }
  PushOutcome onPush(const PushContext& ctx) override;
  RequestOutcome onRequest(const RequestContext& ctx) override;
  std::optional<Version> cachedVersion(PageId page) const override {
    for (const Slot& s : slots_) {
      if (s.entry.page == page) return s.entry.version;
    }
    return std::nullopt;
  }
  Bytes usedBytes() const override;
  Bytes capacityBytes() const override { return capacity_; }

 private:
  struct Slot {
    CacheEntry entry;
    double value = 0.0;
  };

  double frequency(std::uint32_t subCount, std::uint32_t accessCount) const;
  double value(double frequency, Bytes size) const;
  std::uint32_t effectiveAccessCount(const CacheEntry& entry) const;
  Bytes freeBytes() const;
  /// Index of the entry with the smallest (value, page); requires a
  /// non-empty cache.
  std::size_t lowestSlot() const;
  /// Removes a cached page if present, returning its entry.
  bool eraseSlot(PageId page, CacheEntry* out);
  bool insert(const CacheEntry& entry);

  GdsFamilyConfig config_;
  double fetchCost_;
  Bytes capacity_;
  double inflation_ = 0.0;  // L
  std::vector<Slot> slots_;
  std::unordered_map<PageId, std::uint32_t> accessHistory_;
};

/// Reference SUB: push-time-only placement, value-based admission,
/// never caches on a miss, leaves stale copies for the next push.
class ReferenceSubStrategy final : public DistributionStrategy {
 public:
  ReferenceSubStrategy(Bytes capacity, double fetchCost)
      : fetchCost_(fetchCost), capacity_(capacity) {}

  bool pushCapable() const override { return true; }
  PushOutcome onPush(const PushContext& ctx) override;
  RequestOutcome onRequest(const RequestContext& ctx) override;
  std::optional<Version> cachedVersion(PageId page) const override {
    for (const Slot& s : slots_) {
      if (s.entry.page == page) return s.entry.version;
    }
    return std::nullopt;
  }
  Bytes usedBytes() const override;
  Bytes capacityBytes() const override { return capacity_; }

 private:
  struct Slot {
    CacheEntry entry;
    double value = 0.0;
  };

  double value(std::uint32_t subCount, Bytes size) const;
  std::size_t lowestSlot() const;

  double fetchCost_;
  Bytes capacity_;
  std::vector<Slot> slots_;
};

/// Reference Dual-Methods: one shared store, two values per page; the
/// push module evicts by the SUB ordering, the access module by the GD*
/// ordering (only access-time evictions advance L).
class ReferenceDualMethodsStrategy final : public DistributionStrategy {
 public:
  ReferenceDualMethodsStrategy(Bytes capacity, double fetchCost, double beta);

  bool pushCapable() const override { return true; }
  PushOutcome onPush(const PushContext& ctx) override;
  RequestOutcome onRequest(const RequestContext& ctx) override;
  std::optional<Version> cachedVersion(PageId page) const override {
    for (const Slot& s : slots_) {
      if (s.entry.page == page) return s.entry.version;
    }
    return std::nullopt;
  }
  Bytes usedBytes() const override;
  Bytes capacityBytes() const override { return capacity_; }

 private:
  struct Slot {
    CacheEntry entry;
    double subValue = 0.0;
    double gdValue = 0.0;
  };

  double subValue(std::uint32_t subCount, Bytes size) const;
  double gdValue(std::uint32_t accessCount, Bytes size) const;
  std::size_t lowestBySub() const;
  std::size_t lowestByGd() const;
  bool eraseSlot(PageId page, Slot* out);

  Bytes capacity_;
  double fetchCost_;
  double beta_;
  double inflation_ = 0.0;
  std::vector<Slot> slots_;
};

}  // namespace pscd
