// Figure 4 (a, b): overall hit ratios of GD*, SUB, SG1, SG2, SR and
// DC-LAP with perfect subscriptions (SQ = 1) under the three capacity
// settings, for both the NEWS and the ALTERNATIVE traces.
#include "bench_common.h"

using namespace pscd;
using namespace pscd::bench;

int main(int argc, char** argv) {
  const BenchEnv env = parseBenchEnv(
      argc, argv, "bench_fig4_overall",
      "Figure 4: overall hit ratios with perfect subscriptions");
  printHeader("Overall hit ratios with perfect subscriptions",
              "figure 4 (a, b)");
  ExperimentContext ctx(42, 7, env.scale);

  // Every (trace x capacity x strategy) cell; the response-time table
  // reads the cap = 5% cells again.
  std::vector<ExperimentCell> cells;
  for (const TraceKind trace : kTraces) {
    for (const double cap : kCapacityFractions) {
      for (const StrategyKind kind : kFigureStrategies) {
        cells.push_back({trace, 1.0, kind, cap});
      }
    }
  }
  const std::vector<SimMetrics> metrics = runCells(ctx, cells, env.jobs);
  constexpr std::size_t kCaps = std::size(kCapacityFractions);
  constexpr std::size_t kKinds = std::size(kFigureStrategies);
  const auto at = [&](std::size_t t, std::size_t c,
                      std::size_t k) -> const SimMetrics& {
    return metrics[(t * kCaps + c) * kKinds + k];
  };

  CsvSink csv;
  for (std::size_t t = 0; t < std::size(kTraces); ++t) {
    AsciiTable table(
        {"capacity", "GD*", "SUB", "SG1", "SG2", "SR", "DC-LAP"});
    for (std::size_t c = 0; c < kCaps; ++c) {
      table.row().cell(formatFixed(100 * kCapacityFractions[c], 0) + "%");
      for (std::size_t k = 0; k < kKinds; ++k) {
        table.cell(pct(at(t, c, k).hitRatio()));
      }
    }
    const std::string name(traceName(kTraces[t]));
    std::printf("Hit ratio (%%), trace %s, SQ = 1:\n%s\n", name.c_str(),
                table.render().c_str());
    csv.add("fig4_hit_" + name, table);
  }
  // The paper's conclusion ties the hit ratio to the motivating metric:
  // "the improvement in hit ratio translates into a reduction in user
  // perceived response time". Report it under the simulator's latency
  // model (hit: 5 ms local; miss: +100 ms x normalized distance).
  constexpr std::size_t kCap5 = 1;  // kCapacityFractions[1] = 5%
  AsciiTable rt({"trace", "GD*", "SUB", "SG1", "SG2", "SR", "DC-LAP"});
  for (std::size_t t = 0; t < std::size(kTraces); ++t) {
    rt.row().cell(std::string(traceName(kTraces[t])));
    for (std::size_t k = 0; k < kKinds; ++k) {
      rt.cell(formatFixed(at(t, kCap5, k).meanResponseTime(), 1));
    }
  }
  std::printf("Mean user-perceived response time (ms), capacity = 5%%:\n%s\n",
              rt.render().c_str());
  csv.add("fig4_response_time", rt);
  csv.writeTo(env.csvPath);
  std::printf(
      "Paper shape: SG2/SR highest, then DC-LAP ~ SG1, SUB lowest of the\n"
      "pushing schemes; ranks stable across capacities; GD* degrades\n"
      "sharply on ALTERNATIVE (alpha = 1.0); response time is the mirror\n"
      "image of the hit ratio.\n");
  return 0;
}
