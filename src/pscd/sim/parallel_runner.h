// Parallel experiment runner: fans independent (seed x strategy x
// config) simulation cells out across a ThreadPool and collects their
// metrics in schedule order.
//
// Determinism contract (DESIGN.md section 8): a cell's result depends
// only on its ExperimentContext seeds/scale and its own parameters —
// never on scheduling. Each cell that needs randomness derives a
// private seed from its index via cellSeed() instead of drawing from a
// shared RNG, and results are merged under an annotated mutex into a
// slot fixed at schedule time. Serial (jobs = 1, which runs inline on
// the calling thread) and parallel runs therefore produce bit-identical
// metrics, CSVs, and tables.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "pscd/sim/experiment.h"
#include "pscd/util/mutex.h"

namespace pscd {

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
  /// cellSeed() so the schedule stays order-free.
  FaultConfig faults{};
};

class ParallelRunner {
 public:
  /// jobs = 0 resolves to hardware_concurrency; jobs = 1 never spawns a
  /// thread (the benches' serial baseline).
  explicit ParallelRunner(unsigned jobs = 0);

  /// Registers a cell (cells may target different contexts, e.g. one
  /// per workload seed). Returns its index; results keep this order.
  /// The context must outlive runAll().
  std::size_t schedule(ExperimentContext& context, const ExperimentCell& cell);

  /// Runs every scheduled cell, fanning out across `jobs` workers, and
  /// blocks until all are done. The first cell failure is rethrown
  /// after the batch drains. May be called repeatedly as more cells are
  /// scheduled; already-finished cells are not re-run.
  void runAll() PSCD_EXCLUDES(mu_);

  /// Metrics of cell `index`; requires runAll() to have covered it.
  SimMetrics result(std::size_t index) const PSCD_EXCLUDES(mu_);

  unsigned jobs() const { return jobs_; }
  std::size_t cellCount() const { return cells_.size(); }

 private:
  struct Scheduled {
    ExperimentContext* context;
    ExperimentCell cell;
  };

  unsigned jobs_;
  std::vector<Scheduled> cells_;
  std::size_t nextToRun_ = 0;
  mutable Mutex mu_;
  std::vector<std::optional<SimMetrics>> results_ PSCD_GUARDED_BY(mu_);
};

}  // namespace pscd
