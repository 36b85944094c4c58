// Figure 5 (a, b): influence of the subscription quality SQ on the hit
// ratio at the 5% capacity setting, for both traces.
#include "bench_common.h"

using namespace pscd;
using namespace pscd::bench;

int main(int argc, char** argv) {
  const BenchEnv env =
      parseBenchEnv(argc, argv, "bench_fig5_sq",
                    "Figure 5: hit ratio vs subscription quality");
  printHeader("Hit ratio vs subscription quality", "figure 5 (a, b)");
  constexpr double kQualities[] = {0.25, 0.5, 0.75, 1.0};
  ExperimentContext ctx(42, 7, env.scale);

  std::vector<ExperimentCell> cells;
  for (const TraceKind trace : kTraces) {
    for (const double sq : kQualities) {
      for (const StrategyKind kind : kFigureStrategies) {
        cells.push_back({trace, sq, kind, 0.05});
      }
    }
  }
  const std::vector<SimMetrics> metrics = runCells(ctx, cells, env.jobs);

  CsvSink csv;
  std::size_t i = 0;  // the tables walk the cells in order
  for (const TraceKind trace : kTraces) {
    AsciiTable table({"SQ", "GD*", "SUB", "SG1", "SG2", "SR", "DC-LAP"});
    for (const double sq : kQualities) {
      table.row().cell(formatFixed(sq, 2));
      for (std::size_t k = 0; k < std::size(kFigureStrategies); ++k) {
        table.cell(pct(metrics[i++].hitRatio()));
      }
    }
    std::printf("Hit ratio (%%), trace %s, capacity = 5%%:\n%s\n",
                std::string(traceName(trace)).c_str(),
                table.render().c_str());
    csv.add(std::string("fig5_sq_") + std::string(traceName(trace)), table);
  }
  csv.writeTo(env.csvPath);
  std::printf(
      "Paper shape: GD* flat (ignores subscriptions); SR degrades fastest\n"
      "as SQ drops; SG1 and DC-LAP are insensitive; on ALTERNATIVE, SG2\n"
      "falls below SG1 at SQ <= 0.5.\n");
  return 0;
}
