#include "pscd/sim/experiment.h"

#include <algorithm>
#include <functional>

#include "pscd/sim/simulator.h"
#include "pscd/util/check.h"
#include "pscd/util/rng.h"
#include "pscd/util/run_all.h"

namespace pscd {

std::string_view traceName(TraceKind trace) {
  return trace == TraceKind::kNews ? "NEWS" : "ALTERNATIVE";
}

WorkloadParams traceParams(TraceKind trace, double subscriptionQuality,
                           double scale) {
  PSCD_CHECK(scale > 0.0 && scale <= 1.0)
      << "trace scale must be in (0, 1], got " << scale;
  WorkloadParams p = trace == TraceKind::kNews ? newsTraceParams()
                                               : alternativeTraceParams();
  p.subscription.quality = subscriptionQuality;
  // pscd-lint: allow(float-compare) 1.0 is the exact "unscaled" sentinel
  if (scale != 1.0) {
    const auto scaled = [scale](auto value, auto floor) {
      using T = decltype(value);
      return std::max<T>(floor, static_cast<T>(static_cast<double>(value) *
                                               scale));
    };
    p.request.totalRequests = scaled(p.request.totalRequests,
                                     std::uint64_t{2000});
    p.publishing.numPages = scaled(p.publishing.numPages, 200u);
    p.publishing.numUpdatedPages =
        std::min(p.publishing.numPages,
                 scaled(p.publishing.numUpdatedPages, 80u));
  }
  return p;
}

double paperBeta(StrategyKind strategy, TraceKind trace,
                 double capacityFraction) {
  switch (strategy) {
    case StrategyKind::kSUB:
    case StrategyKind::kSR:
    case StrategyKind::kLRU:
    case StrategyKind::kGDS:
    case StrategyKind::kLFUDA:
      return 1.0;
    default:
      break;
  }
  if (trace == TraceKind::kNews) return 2.0;
  // ALTERNATIVE trace (section 5.1): beta is always 0.5 in SG2; for GD*
  // and SG1 (and the schemes built on GD*) beta is 2 at the 5%/10%
  // settings and 1 at 1%.
  if (strategy == StrategyKind::kSG2) return 0.5;
  return capacityFraction < 0.025 ? 1.0 : 2.0;
}

std::uint64_t cellSeed(std::uint64_t baseSeed, std::uint64_t cellIndex) {
  // SplitMix64 over (base, index): two rounds decorrelate neighbouring
  // indices; the golden-ratio increment keeps distinct bases disjoint.
  std::uint64_t state = baseSeed + (cellIndex + 1) * 0x9e3779b97f4a7c15ull;
  splitmix64(state);
  return splitmix64(state);
}

ExperimentContext::ExperimentContext(std::uint64_t workloadSeed,
                                     std::uint64_t topologySeed, double scale)
    : workloadSeed_(workloadSeed), topologySeed_(topologySeed),
      scale_(scale) {
  PSCD_CHECK(scale_ > 0.0 && scale_ <= 1.0)
      << "experiment scale must be in (0, 1], got " << scale_;
}

const Workload& ExperimentContext::workload(TraceKind trace,
                                            double subscriptionQuality) {
  const auto key = std::make_pair(static_cast<int>(trace),
                                  subscriptionQuality);
  MutexLock lock(mu_);
  auto it = workloads_.find(key);
  if (it == workloads_.end()) {
    // Built under the lock: a second thread asking for the same trace
    // blocks until the one build finishes, then reads the const result.
    WorkloadParams params = traceParams(trace, subscriptionQuality, scale_);
    params.seed = workloadSeed_;
    it = workloads_
             .emplace(key, std::make_unique<Workload>(buildWorkload(params)))
             .first;
  }
  return *it->second;
}

const Network& ExperimentContext::network() {
  MutexLock lock(mu_);
  if (!network_) {
    Rng rng(topologySeed_);
    NetworkParams np;  // defaults: 100 proxies, Waxman
    network_ = std::make_unique<Network>(np, rng);
  }
  return *network_;
}

SimMetrics ExperimentContext::run(const ExperimentCell& cell) {
  // Resolve the shared inputs first (each briefly takes the lock), then
  // simulate outside it so independent cells overlap.
  const Workload& w = workload(cell.trace, cell.subscriptionQuality);
  const Network& n = network();
  SimConfig config;
  config.strategy = cell.strategy;
  config.beta = cell.beta.value_or(
      paperBeta(cell.strategy, cell.trace, cell.capacityFraction));
  config.capacityFraction = cell.capacityFraction;
  config.pushScheme = cell.scheme;
  config.collectHourly = cell.collectHourly;
  config.faults = cell.faults;
  return Simulator(w, n, config).run();
}

std::vector<SimMetrics> runCells(ExperimentContext& ctx,
                                 const std::vector<ExperimentCell>& cells,
                                 unsigned jobs) {
  // Each task writes only its own slot; runAll() joins the batch before
  // the slots are read.
  std::vector<std::optional<SimMetrics>> slots(cells.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    tasks.push_back([&, i] { slots[i] = ctx.run(cells[i]); });
  }
  runAll(jobs, std::move(tasks));
  std::vector<SimMetrics> metrics;
  metrics.reserve(cells.size());
  for (std::optional<SimMetrics>& slot : slots) {
    metrics.push_back(std::move(*slot));
  }
  return metrics;
}

}  // namespace pscd
