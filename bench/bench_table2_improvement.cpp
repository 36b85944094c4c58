// Table 2: relative hit-ratio improvement over GD* (%) at the 5%
// capacity setting for both traces (SQ = 1).
#include "bench_common.h"

using namespace pscd;
using namespace pscd::bench;

int main(int argc, char** argv) {
  const BenchEnv env =
      parseBenchEnv(argc, argv, "bench_table2_improvement",
                    "Table 2: relative improvement over GD* at 5% capacity");
  printHeader("Relative improvement over GD* at 5% capacity", "table 2");
  constexpr StrategyKind kColumns[] = {
      StrategyKind::kSUB,  StrategyKind::kSG1,  StrategyKind::kSG2,
      StrategyKind::kSR,   StrategyKind::kDM,   StrategyKind::kDCFP,
      StrategyKind::kDCLAP};
  ExperimentContext ctx(42, 7, env.scale);

  std::vector<ExperimentCell> cells;
  for (const TraceKind trace : kTraces) {
    cells.push_back({trace, 1.0, StrategyKind::kGDStar, 0.05});
    for (const StrategyKind kind : kColumns) {
      cells.push_back({trace, 1.0, kind, 0.05});
    }
  }
  const std::vector<SimMetrics> metrics = runCells(ctx, cells, env.jobs);

  AsciiTable table({"alpha", "SUB", "SG1", "SG2", "SR", "DM", "DC-FP",
                    "DC-LAP"});
  std::size_t i = 0;  // the table walks the cells in order
  for (const TraceKind trace : kTraces) {
    const double gd = metrics[i++].hitRatio();
    table.row().cell(trace == TraceKind::kNews ? "1.5" : "1.0");
    for (std::size_t k = 0; k < std::size(kColumns); ++k) {
      const double h = metrics[i++].hitRatio();
      table.cell(formatFixed(100.0 * (h - gd) / gd, 0));
    }
  }
  std::printf("Relative improvement over GD* (%%), capacity = 5%%:\n%s\n",
              table.render().c_str());
  CsvSink csv;
  csv.add("table2_improvement", table);
  csv.writeTo(env.csvPath);
  std::printf(
      "Paper row alpha=1.5:  6   34   50   54  17   37   40\n"
      "Paper row alpha=1.0: 47   84  133  133  34   93   96\n"
      "Shape to check: every entry positive, alpha=1.0 row much larger,\n"
      "SG2/SR at the top.\n");
  return 0;
}
