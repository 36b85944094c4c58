// Figure 3: hit ratios of Dual-Methods and the Dual-Caches algorithms
// (DM, DC-FP, DC-AP, DC-LAP) against GD* on the NEWS trace under the
// three capacity settings (SQ = 1).
#include "bench_common.h"

using namespace pscd;
using namespace pscd::bench;

int main(int argc, char** argv) {
  const BenchEnv env =
      parseBenchEnv(argc, argv, "bench_fig3_dualcaches",
                    "Figure 3: Dual-Methods vs Dual-Caches on NEWS");
  printHeader("Dual-Methods vs Dual-Caches (NEWS)", "figure 3");
  constexpr StrategyKind kKinds[] = {
      StrategyKind::kGDStar, StrategyKind::kDM, StrategyKind::kDCFP,
      StrategyKind::kDCAP, StrategyKind::kDCLAP};
  ExperimentContext ctx(42, 7, env.scale);

  std::vector<ExperimentCell> cells;
  for (const double cap : kCapacityFractions) {
    for (const StrategyKind kind : kKinds) {
      cells.push_back({TraceKind::kNews, 1.0, kind, cap});
    }
  }
  const std::vector<SimMetrics> metrics = runCells(ctx, cells, env.jobs);

  AsciiTable table({"capacity", "GD*", "DM", "DC-FP", "DC-AP", "DC-LAP"});
  std::size_t i = 0;  // the table walks the cells in order
  for (const double cap : kCapacityFractions) {
    table.row().cell(formatFixed(100 * cap, 0) + "%");
    for (std::size_t k = 0; k < std::size(kKinds); ++k) {
      table.cell(pct(metrics[i++].hitRatio()));
    }
  }
  std::printf("Hit ratio (%%), trace NEWS, SQ = 1:\n%s\n",
              table.render().c_str());
  CsvSink csv;
  csv.add("fig3_dualcaches", table);
  csv.writeTo(env.csvPath);
  std::printf(
      "Paper shape: every Dual* scheme beats GD*; DC-LAP leads the family\n"
      "and the adaptive variants add only marginal gains over DC-FP.\n");
  return 0;
}
