#include "pscd/sim/experiment.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace pscd {
namespace {

TEST(ExperimentTest, TraceNames) {
  EXPECT_EQ(traceName(TraceKind::kNews), "NEWS");
  EXPECT_EQ(traceName(TraceKind::kAlternative), "ALTERNATIVE");
}

TEST(ExperimentTest, TraceParamsCarryAlphaAndQuality) {
  const auto news = traceParams(TraceKind::kNews, 0.5);
  EXPECT_DOUBLE_EQ(news.request.zipfAlpha, 1.5);
  EXPECT_DOUBLE_EQ(news.subscription.quality, 0.5);
  const auto alt = traceParams(TraceKind::kAlternative, 1.0);
  EXPECT_DOUBLE_EQ(alt.request.zipfAlpha, 1.0);
}

TEST(ExperimentTest, PaperBetaRules) {
  // NEWS: beta = 2 for the GD*-based methods.
  EXPECT_DOUBLE_EQ(paperBeta(StrategyKind::kGDStar, TraceKind::kNews, 0.05),
                   2.0);
  EXPECT_DOUBLE_EQ(paperBeta(StrategyKind::kSG1, TraceKind::kNews, 0.01),
                   2.0);
  // ALTERNATIVE: SG2 always 0.5; others 1 at 1% and 2 at 5%/10%.
  EXPECT_DOUBLE_EQ(
      paperBeta(StrategyKind::kSG2, TraceKind::kAlternative, 0.05), 0.5);
  EXPECT_DOUBLE_EQ(
      paperBeta(StrategyKind::kGDStar, TraceKind::kAlternative, 0.01), 1.0);
  EXPECT_DOUBLE_EQ(
      paperBeta(StrategyKind::kGDStar, TraceKind::kAlternative, 0.10), 2.0);
  // Strategies without a beta parameter.
  EXPECT_DOUBLE_EQ(paperBeta(StrategyKind::kSUB, TraceKind::kNews, 0.05),
                   1.0);
  EXPECT_DOUBLE_EQ(paperBeta(StrategyKind::kSR, TraceKind::kAlternative, 0.05),
                   1.0);
}

TEST(ExperimentTest, WorkloadsMemoized) {
  ExperimentContext ctx;
  const Workload& a = ctx.workload(TraceKind::kNews, 1.0);
  const Workload& b = ctx.workload(TraceKind::kNews, 1.0);
  EXPECT_EQ(&a, &b);
  const Workload& c = ctx.workload(TraceKind::kNews, 0.5);
  EXPECT_NE(&a, &c);
}

TEST(ExperimentTest, NetworkMemoized) {
  ExperimentContext ctx;
  EXPECT_EQ(&ctx.network(), &ctx.network());
  EXPECT_EQ(ctx.network().numProxies(), 100u);
}

TEST(CellSeedTest, DeterministicAndDistinctPerIndex) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::uint64_t s = cellSeed(42, i);
    EXPECT_EQ(s, cellSeed(42, i));
    seeds.insert(s);
  }
  // SplitMix64 derivation: no collisions across a realistic cell count.
  EXPECT_EQ(seeds.size(), 1000u);
  // Different base seeds give different streams.
  EXPECT_NE(cellSeed(42, 0), cellSeed(43, 0));
}

// Small but non-trivial cell grid: a fig4-style slice (2 strategies x
// 2 capacities) plus one explicit-beta cell.
std::vector<ExperimentCell> smallGrid() {
  std::vector<ExperimentCell> cells;
  for (const StrategyKind kind : {StrategyKind::kGDStar, StrategyKind::kSG2}) {
    for (const double cap : {0.05, 0.10}) {
      cells.push_back({TraceKind::kNews, 1.0, kind, cap});
    }
  }
  ExperimentCell withBeta{TraceKind::kNews, 0.6, StrategyKind::kSG1, 0.05};
  withBeta.beta = 2.0;
  cells.push_back(withBeta);
  return cells;
}

// Runs the grid and renders every cell's metrics as CSV text, exactly as
// a bench's export would. Byte-comparing two of these is the determinism
// check: any scheduling-dependent result would change the string.
std::string gridCsv(std::uint64_t workloadSeed, unsigned jobs) {
  ExperimentContext ctx(workloadSeed, 7, /*scale=*/0.05);
  const std::vector<SimMetrics> metrics = runCells(ctx, smallGrid(), jobs);
  std::ostringstream csv;
  csv << "cell,requests,hits,hit_ratio,mean_rt,push_pages,fetch_pages\n";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const SimMetrics& m = metrics[i];
    csv << i << ',' << m.requests() << ',' << m.hits() << ','
        << m.hitRatio() << ',' << m.meanResponseTime() << ','
        << m.traffic().pushPages << ',' << m.traffic().fetchPages << '\n';
  }
  return csv.str();
}

TEST(RunCellsTest, SerialAndParallelCsvByteIdentical) {
  // Across 3 workload seeds, jobs = 1 and jobs = 4 produce
  // byte-identical CSV renderings.
  for (const std::uint64_t seed : {42ull, 123ull, 20260806ull}) {
    const std::string serial = gridCsv(seed, 1);
    const std::string parallel = gridCsv(seed, 4);
    EXPECT_EQ(serial, parallel) << "seed " << seed;
    EXPECT_NE(serial.find("cell,requests"), std::string::npos);
  }
}

TEST(RunCellsTest, RepeatedParallelRunsAreStable) {
  // Same seed, same jobs, two separate runs: thread interleavings must
  // not leak into the results.
  EXPECT_EQ(gridCsv(42, 4), gridCsv(42, 4));
}

TEST(RunCellsTest, ResultsKeepCellOrder) {
  ExperimentContext ctx(42, 7, 0.05);
  const std::vector<ExperimentCell> cells = smallGrid();
  const std::vector<SimMetrics> metrics = runCells(ctx, cells, 4);
  ASSERT_EQ(metrics.size(), cells.size());
  // Each slot matches a direct serial run of the same cell.
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const SimMetrics direct = ctx.run(cells[i]);
    EXPECT_EQ(metrics[i].hits(), direct.hits()) << "cell " << i;
    EXPECT_EQ(metrics[i].requests(), direct.requests()) << "cell " << i;
  }
}

TEST(ExperimentContextTest, ConcurrentCellsShareMemoizedWorkload) {
  // All cells pull the same workload/network through the context's
  // guarded memo; the pointer identity proves they shared one build.
  ExperimentContext ctx(42, 7, 0.05);
  runCells(ctx, smallGrid(), 4);
  const Workload* w = &ctx.workload(TraceKind::kNews, 1.0);
  EXPECT_EQ(w, &ctx.workload(TraceKind::kNews, 1.0));
}

}  // namespace
}  // namespace pscd
