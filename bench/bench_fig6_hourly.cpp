// Figure 6 (a, b): average hit ratio per hour for GD*, SUB and SG2 over
// the 7-day simulation (SQ = 1, capacity = 5%), for both traces.
#include <span>

#include "bench_common.h"

using namespace pscd;
using namespace pscd::bench;

int main(int argc, char** argv) {
  const BenchEnv env =
      parseBenchEnv(argc, argv, "bench_fig6_hourly",
                    "Figure 6: hourly hit ratio over the 7-day run");
  printHeader("Hourly hit ratio over the 7-day run", "figure 6 (a, b)");
  constexpr StrategyKind kKinds[] = {StrategyKind::kSG2, StrategyKind::kSUB,
                                     StrategyKind::kGDStar};
  ExperimentContext ctx(42, 7, env.scale);

  std::vector<ExperimentCell> cells;
  for (const TraceKind trace : kTraces) {
    for (const StrategyKind kind : kKinds) {
      cells.push_back({trace, 1.0, kind, 0.05, PushScheme::kAlwaysPushing,
                       /*collectHourly=*/true});
    }
  }
  const std::vector<SimMetrics> metrics = runCells(ctx, cells, env.jobs);

  CsvSink csv;
  for (std::size_t t = 0; t < std::size(kTraces); ++t) {
    const TraceKind trace = kTraces[t];
    std::printf("Trace %s (SQ = 1, capacity = 5%%), hit ratio (%%):\n",
                std::string(traceName(trace)).c_str());
    AsciiTable table({"hour", "SG2", "SUB", "GD*"});
    const std::span<const SimMetrics> runs(
        metrics.data() + t * std::size(kKinds), std::size(kKinds));
    // Print every 6th hour (the figures plot 168 points; the full series
    // goes to CSV on stdout below).
    for (std::size_t h = 0; h < runs[0].hours(); h += 6) {
      table.row().cell(std::to_string(h));
      for (const auto& m : runs) table.cell(pct(m.hourlyHitRatio(h)));
    }
    std::printf("%s\n", table.render().c_str());
    csv.add(std::string("fig6_hourly_") + std::string(traceName(trace)),
            table);
    // Weekly averages per strategy (first/second half) show the trend.
    for (std::size_t k = 0; k < runs.size(); ++k) {
      double early = 0, late = 0;
      const std::size_t half = runs[k].hours() / 2;
      for (std::size_t h = 0; h < half; ++h) {
        early += runs[k].hourlyHitRatio(h);
      }
      for (std::size_t h = half; h < runs[k].hours(); ++h) {
        late += runs[k].hourlyHitRatio(h);
      }
      std::printf("  %-4s mean H: first half %.1f%%, second half %.1f%%\n",
                  std::string(strategyName(kKinds[k])).c_str(),
                  100 * early / half, 100 * late / (runs[k].hours() - half));
    }
    std::printf("\n");
  }
  csv.writeTo(env.csvPath);
  std::printf(
      "Paper shape: SG2 stays high throughout; GD* stabilizes after the\n"
      "cold start; SUB starts high and deteriorates relative to SG2 since\n"
      "it never adapts to the usage pattern.\n");
  return 0;
}
