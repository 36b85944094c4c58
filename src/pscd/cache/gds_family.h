// The GreedyDual* family of strategies. GD* (Jin & Bestavros) is the
// paper's access-time baseline:
//
//   V(p) = L + (f(p) * c(p) / s(p))^(1/beta)          (eq. 1)
//
// with inflation value L, frequency factor f, fetch cost c and size s.
// The paper derives its combined push+access schemes by swapping the
// frequency factor:
//
//   SG1: f = s_sub + a   (eq. 3)     SG2: f = max(s_sub - a, 0)  (eq. 4)
//   SR : V = f * c / s with f = max(s_sub - a, 0), no L (eq. 5)
//
// and the ablation baselines GDS (f = 1, beta = 1) and LFU-DA
// (V = L + f) are the degenerate corners of the same formula, so the
// whole family shares this implementation.
#pragma once

#include <string>

#include "pscd/cache/strategy.h"
#include "pscd/cache/value_cache.h"
#include "pscd/util/flat_map.h"

namespace pscd {

struct GdsFamilyConfig {
  enum class FreqMode {
    kAccessOnly,      // f = a              (GD*, LFU-DA)
    kSubPlusAccess,   // f = s_sub + a      (SG1)
    kSubMinusAccess,  // f = max(s_sub - a, 0)   (SG2, SR)
    kConstantOne,     // f = 1              (GDS)
  };

  FreqMode freqMode = FreqMode::kAccessOnly;
  /// Push-time placement module present (SG1/SG2/SR).
  bool pushEnabled = false;
  /// SUB-style admission (store only if lower-valued candidates free
  /// enough space) instead of GD*'s unconditional admission.
  bool valueBasedAdmission = false;
  /// Include the inflation value L (aging); SR switches it off.
  bool useInflation = true;
  /// Balance factor between long-term popularity and short-term
  /// temporal correlation; the value term is raised to 1/beta.
  double beta = 1.0;
  /// Multiply by the fetch cost c(p).
  bool useCost = true;
  /// Divide by the page size s(p).
  bool useSize = true;
  /// Track the access count a(p) across evictions. GD*'s f(p) follows
  /// In-Cache LFU (discarded on eviction, as the paper states), but the
  /// subscription-based schemes compare a(p) against the subscription
  /// count, and the proxy knows its full access history for that — so
  /// SG1/SG2/SR keep a persistent per-page counter.
  bool persistentAccessCounts = false;

  std::string displayName = "GD*";
};

/// Canonical configurations for the named strategies.
GdsFamilyConfig gdStarConfig(double beta);
GdsFamilyConfig sg1Config(double beta);
GdsFamilyConfig sg2Config(double beta);
GdsFamilyConfig srConfig();
GdsFamilyConfig gdsConfig();
GdsFamilyConfig lfuDaConfig();

class GdsFamilyStrategy final : public DistributionStrategy {
 public:
  GdsFamilyStrategy(Bytes capacity, double fetchCost,
                    const GdsFamilyConfig& config);

  bool pushCapable() const override { return config_.pushEnabled; }
  PushOutcome onPush(const PushContext& ctx) override;
  RequestOutcome onRequest(const RequestContext& ctx) override;
  std::optional<Version> cachedVersion(PageId page) const override {
    const auto* e = cache_.find(page);
    return e ? std::optional<Version>(e->version) : std::nullopt;
  }
  Bytes usedBytes() const override { return cache_.used(); }
  Bytes capacityBytes() const override { return cache_.capacity(); }
  std::string name() const override { return config_.displayName; }
  void checkInvariants() const override;

  /// Current inflation value (exposed for tests).
  double inflation() const { return inflation_; }
  const ValueCache& cache() const { return cache_; }

 private:
  friend class InvariantCorrupter;  // test-only state corruption hook

  double frequency(std::uint32_t subCount, std::uint32_t accessCount) const;
  double value(double frequency, Bytes size) const;
  /// Inserts honoring the admission mode; updates L from evictions.
  /// `accessCount` is the access count the evaluation function sees.
  bool insert(const CacheEntry& entry, std::uint32_t accessCount);
  /// Access count seen by the evaluation function (persistent or
  /// in-cache depending on the configuration).
  std::uint32_t effectiveAccessCount(const CacheEntry& entry) const;
  /// Counts one request for `page` in the persistent history; returns the
  /// updated count (0 when the history is off).
  std::uint32_t noteAccess(PageId page);

  GdsFamilyConfig config_;
  double fetchCost_;
  ValueCache cache_;
  double inflation_ = 0.0;  // L
  /// Persistent access history (only populated when
  /// config_.persistentAccessCounts is set).
  FlatMap<std::uint32_t> accessHistory_;
};

}  // namespace pscd
