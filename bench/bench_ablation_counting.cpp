// Ablation: access-count bookkeeping in the subscription-aware schemes.
// The paper states GD*'s f(p) follows In-Cache LFU (discarded on
// eviction) but leaves open whether the `a` in eqs. 3-5 is in-cache or
// the proxy's full access history. Our implementation keeps a persistent
// per-page counter (the proxy observes every request regardless of cache
// state); this bench quantifies that choice by racing both variants.
#include "bench_common.h"

using namespace pscd;
using namespace pscd::bench;

namespace {

double runVariant(const Workload& w, const Network& net,
                  const GdsFamilyConfig& config, double capacityFraction) {
  SimConfig sc;
  sc.capacityFraction = capacityFraction;
  sc.strategyFactory = [&config](ProxyId, const StrategyParams& p) {
    return std::make_unique<GdsFamilyStrategy>(p.capacity, p.fetchCost,
                                               config);
  };
  return Simulator(w, net, sc).run().hitRatio();
}

}  // namespace

int main(int argc, char** argv) {
  const BenchEnv env = parseBenchEnv(
      argc, argv, "bench_ablation_counting",
      "Ablation: persistent vs in-cache access counting in eqs. 3-5");
  printHeader("Ablation: persistent vs in-cache access counting (a in "
              "eqs. 3-5)",
              "an implementation decision the paper leaves open");
  ExperimentContext ctx(42, 7, env.scale);
  const std::vector<std::pair<const char*, GdsFamilyConfig>> kMethods = {
      {"SG1", sg1Config(2.0)}, {"SG2", sg2Config(2.0)}, {"SR", srConfig()}};
  constexpr TraceKind kTraces[] = {TraceKind::kNews, TraceKind::kAlternative};

  // Shared inputs first, then one task per (trace, method, variant).
  for (const TraceKind trace : kTraces) ctx.workload(trace, 1.0);
  ctx.network();
  // hit[trace][method][0 = in-cache, 1 = persistent]
  std::vector<std::vector<std::array<double, 2>>> hit(
      std::size(kTraces),
      std::vector<std::array<double, 2>>(kMethods.size(), {0.0, 0.0}));
  std::vector<std::function<void()>> tasks;
  for (std::size_t t = 0; t < std::size(kTraces); ++t) {
    for (std::size_t m = 0; m < kMethods.size(); ++m) {
      for (const bool persistent : {false, true}) {
        tasks.push_back([&, t, m, persistent] {
          GdsFamilyConfig config = kMethods[m].second;
          config.persistentAccessCounts = persistent;
          hit[t][m][persistent ? 1 : 0] =
              runVariant(ctx.workload(kTraces[t], 1.0), ctx.network(),
                         config, 0.05);
        });
      }
    }
  }
  runAll(env.jobs, std::move(tasks));

  AsciiTable table({"trace", "method", "in-cache a", "persistent a",
                    "delta"});
  for (std::size_t t = 0; t < std::size(kTraces); ++t) {
    for (std::size_t m = 0; m < kMethods.size(); ++m) {
      const double hIn = hit[t][m][0];
      const double hPersist = hit[t][m][1];
      table.row()
          .cell(std::string(traceName(kTraces[t])))
          .cell(kMethods[m].first)
          .cell(pct(hIn))
          .cell(pct(hPersist))
          .cell(formatFixed(100 * (hPersist - hIn), 1) + " pp");
    }
  }
  std::printf("Hit ratio (%%), SQ = 1, capacity = 5%%:\n%s\n",
              table.render().c_str());
  CsvSink csv;
  csv.add("ablation_counting", table);
  csv.writeTo(env.csvPath);
  std::printf(
      "Reading: with persistent counters a drained page (a >= s) stays\n"
      "recognizable after an eviction/re-push cycle, so SG2/SR reclaim\n"
      "its space; with in-cache counters the page re-enters with a = 0\n"
      "and masquerades as undrained. SG1 (s + a) is insensitive.\n");
  return 0;
}
