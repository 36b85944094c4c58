// Ablation: classic access-time replacement baselines. The paper adopts
// GD* as its baseline citing Jin & Bestavros's result that it beats LRU,
// GDS and LFU-DA; this harness re-checks the premise on our workloads.
#include "bench_common.h"

using namespace pscd;
using namespace pscd::bench;

int main(int argc, char** argv) {
  const BenchEnv env =
      parseBenchEnv(argc, argv, "bench_ablation_baselines",
                    "Ablation: GD* vs classic replacement baselines");
  printHeader("Ablation: GD* vs classic replacement baselines",
              "the baseline choice of section 3.1");
  constexpr StrategyKind kKinds[] = {StrategyKind::kGDStar,
                                     StrategyKind::kGDS, StrategyKind::kLFUDA,
                                     StrategyKind::kLRU};
  ExperimentContext ctx(42, 7, env.scale);

  std::vector<ExperimentCell> cells;
  for (const TraceKind trace : kTraces) {
    for (const double cap : kCapacityFractions) {
      for (const StrategyKind kind : kKinds) {
        cells.push_back({trace, 1.0, kind, cap});
      }
    }
  }
  const std::vector<SimMetrics> metrics = runCells(ctx, cells, env.jobs);

  CsvSink csv;
  std::size_t i = 0;  // the tables walk the cells in order
  for (const TraceKind trace : kTraces) {
    AsciiTable table({"capacity", "GD*", "GDS", "LFU-DA", "LRU"});
    for (const double cap : kCapacityFractions) {
      table.row().cell(formatFixed(100 * cap, 0) + "%");
      for (std::size_t k = 0; k < std::size(kKinds); ++k) {
        table.cell(pct(metrics[i++].hitRatio()));
      }
    }
    std::printf("Hit ratio (%%), trace %s:\n%s\n",
                std::string(traceName(trace)).c_str(),
                table.render().c_str());
    csv.add(std::string("ablation_baselines_") +
                std::string(traceName(trace)),
            table);
  }
  csv.writeTo(env.csvPath);
  std::printf(
      "Reading: GD* should match or beat the classics, justifying its use\n"
      "as the access-time module inside the combined schemes.\n");
  return 0;
}
