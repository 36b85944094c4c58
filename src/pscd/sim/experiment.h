// Shared experiment harness for the benchmark binaries: canonical trace
// construction (NEWS / ALTERNATIVE at a given subscription quality), a
// cached workload/network store so sweeps do not regenerate traces, and
// the per-trace beta settings the paper reports in section 5.1.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "pscd/cache/strategy_factory.h"
#include "pscd/core/fault_plan.h"
#include "pscd/core/service.h"
#include "pscd/sim/metrics.h"
#include "pscd/topology/network.h"
#include "pscd/util/mutex.h"
#include "pscd/workload/workload.h"

namespace pscd {

enum class TraceKind { kNews, kAlternative };

inline constexpr double kCapacityFractions[] = {0.01, 0.05, 0.10};

std::string_view traceName(TraceKind trace);

/// Workload parameters of a canonical trace at the given subscription
/// quality (NEWS: Zipf alpha 1.5; ALTERNATIVE: alpha 1.0), optionally
/// shrunk by `scale` in (0, 1] (requests/pages scaled together, proxy
/// count untouched so the trace still matches the canonical network).
/// scale = 1 is the paper's full setup.
WorkloadParams traceParams(TraceKind trace, double subscriptionQuality,
                           double scale = 1.0);

/// Beta used for a strategy in the headline experiments, following the
/// paper's tuning: beta = 2 throughout for NEWS; for ALTERNATIVE beta =
/// 0.5 in SG2 and 2 elsewhere (1 at the 1% capacity setting). Strategies
/// without a beta (SUB, SR, LRU) return 1.
double paperBeta(StrategyKind strategy, TraceKind trace,
                 double capacityFraction);

/// Builds and memoizes canonical workloads, the overlay network, and
/// finished simulation results so a bench can sweep strategies without
/// regenerating traces or re-running cells it already rendered once.
///
/// Thread-safe: the memo maps (the experiment registry) live behind one
/// annotated mutex, so ParallelRunner can fan independent cells out
/// across a ThreadPool. Workload/network construction happens under the
/// lock (built exactly once, then read concurrently as const);
/// simulations run outside it and merge their metrics back under it.
/// Every run is deterministic in (seeds, scale, cell parameters) alone,
/// so serial and parallel sweeps produce identical results.
class ExperimentContext {
 public:
  explicit ExperimentContext(std::uint64_t workloadSeed = 42,
                             std::uint64_t topologySeed = 7,
                             double scale = 1.0);

  const Workload& workload(TraceKind trace, double subscriptionQuality)
      PSCD_EXCLUDES(mu_);
  const Network& network() PSCD_EXCLUDES(mu_);

  /// Runs one simulation with the paper's beta for the setting; pass a
  /// FaultConfig to run the cell under the failure model (the default
  /// disables it).
  SimMetrics run(TraceKind trace, double subscriptionQuality,
                 StrategyKind strategy, double capacityFraction,
                 PushScheme scheme = PushScheme::kAlwaysPushing,
                 bool collectHourly = false,
                 const FaultConfig& faults = {}) PSCD_EXCLUDES(mu_);

  /// Same but with an explicit beta (used by the beta-sweep bench).
  SimMetrics runWithBeta(TraceKind trace, double subscriptionQuality,
                         StrategyKind strategy, double capacityFraction,
                         double beta,
                         PushScheme scheme = PushScheme::kAlwaysPushing,
                         bool collectHourly = false,
                         const FaultConfig& faults = {}) PSCD_EXCLUDES(mu_);

  std::uint64_t workloadSeed() const { return workloadSeed_; }
  std::uint64_t topologySeed() const { return topologySeed_; }
  double scale() const { return scale_; }

 private:
  /// Every FaultConfig field, flattened so distinct failure settings
  /// memoize as distinct cells.
  using FaultKey =
      std::tuple<std::uint64_t, double, double, bool, double, double, double,
                 double, bool, std::uint32_t, double, double>;
  static FaultKey faultKey(const FaultConfig& faults);

  /// One simulation setting; doubles are compared bit-exactly, which is
  /// fine because keys are always rebuilt from the same literals.
  using CellKey =
      std::tuple<int, double, int, double, double, int, bool, FaultKey>;

  std::uint64_t workloadSeed_;
  std::uint64_t topologySeed_;
  double scale_;

  mutable Mutex mu_;
  std::map<std::pair<int, double>, std::unique_ptr<Workload>> workloads_
      PSCD_GUARDED_BY(mu_);
  std::unique_ptr<Network> network_ PSCD_GUARDED_BY(mu_);
  std::map<CellKey, SimMetrics> results_ PSCD_GUARDED_BY(mu_);
};

}  // namespace pscd
