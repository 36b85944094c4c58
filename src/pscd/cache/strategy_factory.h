// Construction of the named strategies from table 1 (plus the ablation
// baselines) behind a single enum, used by the engine, the simulator and
// the benchmark harness.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "pscd/cache/strategy.h"

namespace pscd {

enum class StrategyKind {
  kGDStar,  // access-time baseline (section 3.1)
  kSUB,     // push-time only (section 3.2)
  kSG1,     // single cache, GD* with f = s + a
  kSG2,     // single cache, GD* with f = s - a
  kSR,      // single cache, frequency-only prediction
  kDM,      // single cache, dual replacement methods
  kDCFP,    // dual caches, fixed partition
  kDCAP,    // dual caches, adaptive partition
  kDCLAP,   // dual caches, limited adaptive partition
  kLRU,     // ablation baseline
  kGDS,     // ablation baseline (GreedyDual-Size)
  kLFUDA,   // ablation baseline (LFU with dynamic aging)
};

/// All strategies the paper evaluates, in figure order.
inline constexpr StrategyKind kPaperStrategies[] = {
    StrategyKind::kGDStar, StrategyKind::kSUB,  StrategyKind::kSG1,
    StrategyKind::kSG2,    StrategyKind::kSR,   StrategyKind::kDM,
    StrategyKind::kDCFP,   StrategyKind::kDCAP, StrategyKind::kDCLAP,
};

struct StrategyParams {
  Bytes capacity = 0;
  /// Network distance from the publisher to this proxy (c(p)).
  double fetchCost = 1.0;
  /// GD*'s balance factor between long-term popularity and short-term
  /// temporal correlation (used by GD*, SG1, SG2, DM, DC-*).
  double beta = 1.0;
  /// Dual-cache partition parameters.
  double dcInitialPcFraction = 0.5;
  double dcMinPcFraction = 0.25;
  double dcMaxPcFraction = 0.75;
};

std::unique_ptr<DistributionStrategy> makeStrategy(StrategyKind kind,
                                                   const StrategyParams& p);

/// Builds one proxy's strategy from the parameters makeStrategy would
/// get; how a caller runs a strategy that has no StrategyKind.
using StrategyFactory = std::function<std::unique_ptr<DistributionStrategy>(
    ProxyId, const StrategyParams&)>;

std::string_view strategyName(StrategyKind kind);

/// Parses a name as printed by strategyName ("GD*", "SUB", "DC-LAP", ...).
/// Throws std::invalid_argument for unknown names.
StrategyKind parseStrategyKind(std::string_view name);

}  // namespace pscd
