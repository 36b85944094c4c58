// Shared experiment harness for the benchmark binaries: canonical trace
// construction (NEWS / ALTERNATIVE at a given subscription quality), a
// cached workload/network store so sweeps do not regenerate traces, the
// per-trace beta settings the paper reports in section 5.1, and
// runCells(), which runs a grid of independent simulation cells with
// runAll() and returns their metrics.
//
// Determinism contract (DESIGN.md section 8): a cell's result depends
// only on its ExperimentContext seeds/scale and its own parameters —
// never on scheduling. A cell that needs randomness derives a private
// seed from its index via cellSeed() instead of drawing from a shared
// RNG, and each cell's metrics land in its own slot and come back in
// cell order, so serial and parallel sweeps produce bit-identical
// metrics, CSVs and tables.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

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

/// Derives the private RNG seed of cell `cellIndex` from a base seed:
/// deterministic, order-free, and decorrelated across indices
/// (SplitMix64 over the index stream). Use this — never a shared Rng —
/// when generating per-cell randomness.
std::uint64_t cellSeed(std::uint64_t baseSeed, std::uint64_t cellIndex);

/// One simulation setting to run under an ExperimentContext.
struct ExperimentCell {
  TraceKind trace = TraceKind::kNews;
  double subscriptionQuality = 1.0;
  StrategyKind strategy = StrategyKind::kGDStar;
  double capacityFraction = 0.05;
  PushScheme scheme = PushScheme::kAlwaysPushing;
  bool collectHourly = false;
  /// When set, overrides paperBeta() for this cell.
  std::optional<double> beta{};
  /// Failure model of this cell (default: disabled, ideal overlay). A
  /// cell wanting stochastic faults should set faults.seed from its own
  /// cellSeed() so the grid stays order-free.
  FaultConfig faults{};
};

/// Builds and memoizes the canonical workloads and the overlay network,
/// so a bench can sweep strategies without regenerating traces.
///
/// Thread-safe: the memo maps live behind one annotated mutex.
/// Workload/network construction happens under the lock (built exactly
/// once, then read concurrently as const); simulations run outside it.
class ExperimentContext {
 public:
  explicit ExperimentContext(std::uint64_t workloadSeed = 42,
                             std::uint64_t topologySeed = 7,
                             double scale = 1.0);

  const Workload& workload(TraceKind trace, double subscriptionQuality)
      PSCD_EXCLUDES(mu_);
  const Network& network() PSCD_EXCLUDES(mu_);

  /// Simulates one cell, with the paper's beta for the setting unless
  /// the cell sets its own.
  SimMetrics run(const ExperimentCell& cell) PSCD_EXCLUDES(mu_);

 private:
  std::uint64_t workloadSeed_;
  std::uint64_t topologySeed_;
  double scale_;

  mutable Mutex mu_;
  std::map<std::pair<int, double>, std::unique_ptr<Workload>> workloads_
      PSCD_GUARDED_BY(mu_);
  std::unique_ptr<Network> network_ PSCD_GUARDED_BY(mu_);
};

/// Runs every cell under `ctx` across `jobs` workers (0 = one per
/// hardware thread; 1 runs them inline, in order, on the calling thread)
/// and returns their metrics in cell order. The lowest-index cell
/// failure is rethrown after the batch drains.
std::vector<SimMetrics> runCells(ExperimentContext& ctx,
                                 const std::vector<ExperimentCell>& cells,
                                 unsigned jobs);

}  // namespace pscd
