// Extension: two-tier hierarchical caching (section 6 discussion —
// Gadde et al. observe a natural limit to the benefits of hierarchical
// CDNs). The question here: how much does a regional parent tier add on
// top of each leaf strategy? The paper's thesis predicts pushing already
// achieves most of what the hierarchy would, while the access-only
// baseline gains a lot.
#include "bench_common.h"

#include "pscd/sim/hierarchy.h"

using namespace pscd;
using namespace pscd::bench;

int main(int argc, char** argv) {
  const BenchEnv env = parseBenchEnv(
      argc, argv, "bench_hierarchy",
      "Extension: regional parent tier on top of each strategy");
  printHeader("Extension: regional parent tier on top of each strategy",
              "the hierarchical-CDN discussion of section 6");
  ExperimentContext ctx(42, 7, env.scale);
  const Workload& w = ctx.workload(TraceKind::kNews, 1.0);
  const Network& net = ctx.network();

  constexpr StrategyKind kKinds[] = {StrategyKind::kGDStar,
                                     StrategyKind::kSUB, StrategyKind::kSG1,
                                     StrategyKind::kSG2, StrategyKind::kDCLAP};
  constexpr double kParentFractions[] = {0.01, 0.05, 0.15, 0.40};

  // One task per hierarchical run (5 per-strategy + 4 sweep rows), all
  // over the shared read-only workload/network.
  std::vector<HierarchyResult> byKind(std::size(kKinds));
  std::vector<HierarchyResult> bySweep(std::size(kParentFractions));
  std::vector<std::function<void()>> tasks;
  for (std::size_t k = 0; k < std::size(kKinds); ++k) {
    tasks.push_back([&, k] {
      HierarchyConfig hc;
      hc.leafStrategy = kKinds[k];
      hc.parentStrategy = kKinds[k];
      hc.beta = paperBeta(kKinds[k], TraceKind::kNews, 0.05);
      hc.leafCapacityFraction = 0.05;
      hc.parentCapacityFraction = 0.05;
      byKind[k] = runHierarchical(w, net, hc);
    });
  }
  for (std::size_t f = 0; f < std::size(kParentFractions); ++f) {
    tasks.push_back([&, f] {
      HierarchyConfig hc;
      hc.parentCapacityFraction = kParentFractions[f];
      bySweep[f] = runHierarchical(w, net, hc);
    });
  }
  runAll(env.jobs, std::move(tasks));

  AsciiTable table({"leaf strategy", "leaf H", "leaf+parent H",
                    "parent adds", "mean RT (ms)"});
  for (std::size_t k = 0; k < std::size(kKinds); ++k) {
    const auto& r = byKind[k];
    table.row()
        .cell(std::string(strategyName(kKinds[k])))
        .cell(pct(r.leafHitRatio()))
        .cell(pct(r.combinedHitRatio()))
        .cell(formatFixed(
                  100 * (r.combinedHitRatio() - r.leafHitRatio()), 1) +
              " pp")
        .cell(formatFixed(r.meanResponseTimeMs, 1));
  }
  std::printf("NEWS, SQ = 1, leaf capacity 5%%, 5 parents at 5%% of their "
              "subtree:\n%s\n",
              table.render().c_str());

  // Parent capacity sweep for the baseline: the "natural limit".
  AsciiTable sweep({"parent capacity", "GD* leaf H", "GD* combined H"});
  for (std::size_t f = 0; f < std::size(kParentFractions); ++f) {
    const auto& r = bySweep[f];
    sweep.row()
        .cell(formatFixed(100 * kParentFractions[f], 0) + "%")
        .cell(pct(r.leafHitRatio()))
        .cell(pct(r.combinedHitRatio()));
  }
  std::printf("Parent-capacity sweep (GD* leaves):\n%s\n",
              sweep.render().c_str());
  CsvSink csv;
  csv.add("hierarchy_by_strategy", table);
  csv.add("hierarchy_parent_sweep", sweep);
  csv.writeTo(env.csvPath);
  std::printf(
      "Reading: the parent tier rescues many of GD*'s misses but the\n"
      "combined ratio saturates (the hierarchical 'natural limit'); the\n"
      "push-based schemes gain far less because match-time placement\n"
      "already did the parent's job at the edge.\n");
  return 0;
}
