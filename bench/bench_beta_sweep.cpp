// Section 5.1: tuning of the balance factor beta for GD*, SG1 and SG2.
// The paper varies beta from 0.0625 to 4 under the three capacity
// settings for both traces and picks the best per setting; this harness
// prints the full sweep and the arg-max per row.
#include "bench_common.h"

using namespace pscd;
using namespace pscd::bench;

int main(int argc, char** argv) {
  const BenchEnv env =
      parseBenchEnv(argc, argv, "bench_beta_sweep",
                    "Section 5.1: beta sweep for GD*, SG1, SG2");
  printHeader("Beta sweep for GD*, SG1, SG2", "section 5.1");
  constexpr double kBetas[] = {0.0625, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0};
  constexpr StrategyKind kKinds[] = {StrategyKind::kGDStar,
                                     StrategyKind::kSG1, StrategyKind::kSG2};
  ExperimentContext ctx(42, 7, env.scale);

  std::vector<ExperimentCell> cells;
  for (const TraceKind trace : kTraces) {
    for (const StrategyKind kind : kKinds) {
      for (const double cap : kCapacityFractions) {
        for (const double beta : kBetas) {
          ExperimentCell cell{trace, 1.0, kind, cap};
          cell.beta = beta;
          cells.push_back(cell);
        }
      }
    }
  }
  const std::vector<SimMetrics> metrics = runCells(ctx, cells, env.jobs);

  CsvSink csv;
  std::size_t i = 0;  // the tables walk the cells in order
  for (const TraceKind trace : kTraces) {
    std::vector<std::string> header = {"method", "capacity"};
    for (const double b : kBetas) header.push_back("b=" + formatFixed(b, 4));
    header.push_back("best beta");
    AsciiTable table(header);
    for (const StrategyKind kind : kKinds) {
      for (const double cap : kCapacityFractions) {
        table.row()
            .cell(std::string(strategyName(kind)))
            .cell(formatFixed(100 * cap, 0) + "%");
        double bestBeta = kBetas[0], bestHit = -1.0;
        for (const double beta : kBetas) {
          const SimMetrics& m = metrics[i++];
          table.cell(pct(m.hitRatio()));
          if (m.hitRatio() > bestHit) {
            bestHit = m.hitRatio();
            bestBeta = beta;
          }
        }
        table.cell(formatFixed(bestBeta, 4));
      }
    }
    std::printf("Trace %s (SQ = 1), hit ratio (%%) by beta:\n%s\n",
                std::string(traceName(trace)).c_str(),
                table.render().c_str());
    csv.add(std::string("beta_sweep_") + std::string(traceName(trace)),
            table);
  }
  csv.writeTo(env.csvPath);
  std::printf(
      "Paper: beta = 2 for all three methods on NEWS; on ALTERNATIVE beta\n"
      "= 0.5 for SG2 and 2 (1 at the 1%% setting) for GD*/SG1.\n");
  return 0;
}
