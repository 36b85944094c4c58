#include "pscd/sim/simulator.h"

#include <gtest/gtest.h>

#include <cmath>

namespace pscd {
namespace {

WorkloadParams tinyParams(std::uint64_t seed = 3) {
  WorkloadParams p = newsTraceParams();
  p.publishing.numPages = 250;
  p.publishing.numUpdatedPages = 100;
  p.publishing.maxVersionsPerPage = 15;
  p.request.totalRequests = 6000;
  p.request.numProxies = 8;
  p.request.minServerPool = 2;
  p.seed = seed;
  return p;
}

class SimulatorTest : public ::testing::Test {
 protected:
  SimulatorTest()
      : workload_(buildWorkload(tinyParams())),
        rng_(9),
        network_(NetworkParams{.numProxies = 8, .numTransitNodes = 4},
                 rng_) {}

  SimMetrics run(StrategyKind kind, double cap = 0.05,
                 PushScheme scheme = PushScheme::kAlwaysPushing,
                 bool hourly = false) {
    SimConfig c;
    c.strategy = kind;
    c.beta = 2.0;
    c.capacityFraction = cap;
    c.pushScheme = scheme;
    c.collectHourly = hourly;
    return Simulator(workload_, network_, c).run();
  }

  Workload workload_;
  Rng rng_;
  Network network_;
};

TEST_F(SimulatorTest, ProcessesWholeTrace) {
  const auto m = run(StrategyKind::kGDStar);
  EXPECT_EQ(m.requests(), workload_.requests.size());
  EXPECT_GT(m.hitRatio(), 0.0);
  EXPECT_LT(m.hitRatio(), 1.0);
}

TEST_F(SimulatorTest, RepeatableRuns) {
  const auto a = run(StrategyKind::kSG2);
  const auto b = run(StrategyKind::kSG2);
  EXPECT_EQ(a.hits(), b.hits());
  EXPECT_EQ(a.traffic().pushPages, b.traffic().pushPages);
}

TEST_F(SimulatorTest, CapacityMonotonicity) {
  const double h1 = run(StrategyKind::kGDStar, 0.01).hitRatio();
  const double h10 = run(StrategyKind::kGDStar, 0.20).hitRatio();
  EXPECT_GE(h10, h1);
}

TEST_F(SimulatorTest, ProxyCapacityFollowsFraction) {
  SimConfig c;
  c.capacityFraction = 0.05;
  Simulator sim(workload_, network_, c);
  for (ProxyId p = 0; p < workload_.numProxies(); ++p) {
    const auto expect = static_cast<Bytes>(
        std::llround(0.05 *
                     static_cast<double>(workload_.uniqueBytesRequested[p])));
    EXPECT_EQ(sim.proxyCapacity(p), std::max<Bytes>(expect, 1));
  }
}

TEST_F(SimulatorTest, PushStrategiesGeneratePushTraffic) {
  EXPECT_EQ(run(StrategyKind::kGDStar).traffic().pushPages, 0u);
  EXPECT_GT(run(StrategyKind::kSG2).traffic().pushPages, 0u);
}

TEST_F(SimulatorTest, WhenNecessaryNeverExceedsAlwaysPushing) {
  const auto always =
      run(StrategyKind::kSG2, 0.05, PushScheme::kAlwaysPushing);
  const auto necessary =
      run(StrategyKind::kSG2, 0.05, PushScheme::kPushingWhenNecessary);
  EXPECT_LE(necessary.traffic().pushPages, always.traffic().pushPages);
  // The hit ratio is identical: the scheme changes traffic accounting,
  // not placement decisions.
  EXPECT_EQ(necessary.hits(), always.hits());
}

TEST_F(SimulatorTest, HourlySeriesCoverHorizon) {
  const auto m = run(StrategyKind::kGDStar, 0.05,
                     PushScheme::kAlwaysPushing, true);
  EXPECT_EQ(m.hours(), 168u);
  double total = 0.0;
  for (std::size_t h = 0; h < m.hours(); ++h) {
    total += m.hourlyTrafficPages(h);
  }
  EXPECT_DOUBLE_EQ(total, static_cast<double>(m.traffic().totalPages()));
}

TEST_F(SimulatorTest, FetchTrafficMatchesMisses) {
  const auto m = run(StrategyKind::kGDStar);
  EXPECT_EQ(m.traffic().fetchPages, m.requests() - m.hits());
}

TEST_F(SimulatorTest, InvariantCheckingPasses) {
  for (const StrategyKind kind : kPaperStrategies) {
    SimConfig c;
    c.strategy = kind;
    c.beta = 2.0;
    c.capacityFraction = 0.03;
    c.selfCheckHourly = true;
    EXPECT_NO_THROW(Simulator(workload_, network_, c).run())
        << strategyName(kind);
  }
}

TEST_F(SimulatorTest, ResponseTimeMirrorsHitRatio) {
  const auto gd = run(StrategyKind::kGDStar);
  const auto sg2 = run(StrategyKind::kSG2);
  // Higher hit ratio => lower mean response time under the latency model.
  ASSERT_GT(sg2.hitRatio(), gd.hitRatio());
  EXPECT_LT(sg2.meanResponseTime(), gd.meanResponseTime());
  // Bounds: between pure-local and local + max distance * unit.
  EXPECT_GE(gd.meanResponseTime(), 5.0);
}

TEST_F(SimulatorTest, PerfectCacheGivesLocalLatency) {
  // With a capacity fraction of 1.0 and pushes, SG2 approaches the
  // local-only latency floor.
  SimConfig c;
  c.strategy = StrategyKind::kSG2;
  c.beta = 2.0;
  c.capacityFraction = 1.0;
  const auto m = Simulator(workload_, network_, c).run();
  EXPECT_GT(m.hitRatio(), 0.9);
  EXPECT_LT(m.meanResponseTime(), 5.0 + 0.2 * 100.0);
}

TEST_F(SimulatorTest, MismatchedProxyCountRejected) {
  Rng rng(1);
  const Network other(NetworkParams{.numProxies = 3}, rng);
  SimConfig c;
  EXPECT_THROW(Simulator(workload_, other, c), std::invalid_argument);
}

TEST_F(SimulatorTest, BadCapacityFractionRejected) {
  SimConfig c;
  c.capacityFraction = 0.0;
  EXPECT_THROW(Simulator(workload_, network_, c), std::invalid_argument);
  c.capacityFraction = 1.5;
  EXPECT_THROW(Simulator(workload_, network_, c), std::invalid_argument);
}

}  // namespace
}  // namespace pscd
