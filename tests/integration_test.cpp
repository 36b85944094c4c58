// End-to-end integration tests on a scaled-down news workload: the
// paper's headline qualitative results must hold, and the simulator's
// stream merging must agree with a hand-driven service replay.
#include <gtest/gtest.h>

#include "pscd/core/service.h"
#include "pscd/sim/experiment.h"
#include "pscd/sim/simulator.h"

namespace pscd {
namespace {

class DiscardSink final : public EventSink {
 public:
  void onPush(const PushDelivery&) override {}
  void onRequest(const RequestDelivery&) override {}
};

WorkloadParams miniParams(double sq = 1.0) {
  WorkloadParams p = newsTraceParams();
  p.publishing.numPages = 600;
  p.publishing.numUpdatedPages = 240;
  p.publishing.maxVersionsPerPage = 40;
  p.request.totalRequests = 20000;
  p.request.numProxies = 12;
  p.request.minServerPool = 4;
  p.subscription.quality = sq;
  p.seed = 1234;
  return p;
}

class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest()
      : workload_(buildWorkload(miniParams())),
        rng_(31),
        network_(NetworkParams{.numProxies = 12, .numTransitNodes = 6},
                 rng_) {}

  SimMetrics run(StrategyKind kind, double cap = 0.05) {
    SimConfig c;
    c.strategy = kind;
    c.beta = 2.0;
    c.capacityFraction = cap;
    return Simulator(workload_, network_, c).run();
  }

  Workload workload_;
  Rng rng_;
  Network network_;
};

TEST_F(IntegrationTest, PushingBeatsPureCachingAtModerateCapacity) {
  // The paper's central result (fig. 4): with perfect subscriptions the
  // push+access schemes beat the access-only baseline.
  const double gd = run(StrategyKind::kGDStar).hitRatio();
  for (const StrategyKind kind :
       {StrategyKind::kSG1, StrategyKind::kSG2, StrategyKind::kSR,
        StrategyKind::kDM, StrategyKind::kDCLAP}) {
    EXPECT_GT(run(kind).hitRatio(), gd) << strategyName(kind);
  }
}

TEST_F(IntegrationTest, Sg2BeatsSubWhichBeatsNothingOnMisses) {
  const double sub = run(StrategyKind::kSUB).hitRatio();
  const double sg2 = run(StrategyKind::kSG2).hitRatio();
  EXPECT_GT(sg2, sub);
}

TEST_F(IntegrationTest, GdStarPaysStaleMisses) {
  const auto gd = run(StrategyKind::kGDStar);
  const auto sg2 = run(StrategyKind::kSG2);
  EXPECT_GT(gd.staleMisses(), 0u);
  // Pushing keeps subscribed proxies fresh: far fewer stale misses.
  EXPECT_LT(sg2.staleMisses(), gd.staleMisses() / 2);
}

TEST_F(IntegrationTest, TrafficAccountingConsistent) {
  const auto m = run(StrategyKind::kSG2);
  EXPECT_EQ(m.traffic().fetchPages, m.requests() - m.hits());
  EXPECT_GT(m.traffic().pushBytes, 0u);
  // Fetch bytes can never exceed total requested bytes.
  Bytes totalRequested = 0;
  for (const auto& r : workload_.requests) {
    totalRequested += workload_.pages[r.page].size;
  }
  EXPECT_LE(m.traffic().fetchBytes, totalRequested);
}

TEST_F(IntegrationTest, SimulatorMatchesManualEngineReplay) {
  // Drive a service by hand over the merged streams and compare with
  // the Simulator run — validates the event merge and accounting.
  SimConfig c;
  c.strategy = StrategyKind::kSG2;
  c.beta = 2.0;
  c.capacityFraction = 0.05;
  Simulator sim(workload_, network_, c);
  const auto fromSim = sim.run();

  ServiceConfig sc;
  sc.engine.strategy = StrategyKind::kSG2;
  sc.engine.beta = 2.0;
  for (ProxyId p = 0; p < workload_.numProxies(); ++p) {
    sc.engine.proxyCapacities.push_back(sim.proxyCapacity(p));
  }
  ManualClock clock;
  DiscardSink sink;
  DistributionService service(network_, clock, sink, std::move(sc));
  for (PageId page = 0; page < workload_.numPages(); ++page) {
    for (const auto& n : workload_.subscriptions(page)) {
      service.broker().subscribeAggregated(n.proxy, page, n.matchCount);
    }
  }
  std::uint64_t hits = 0, pushes = 0;
  std::size_t pi = 0, ri = 0;
  while (pi < workload_.publishes.size() || ri < workload_.requests.size()) {
    const bool takePublish =
        pi < workload_.publishes.size() &&
        (ri >= workload_.requests.size() ||
         workload_.publishes[pi].time <= workload_.requests[ri].time);
    if (takePublish) {
      const PublishEvent& ev = workload_.publishes[pi++];
      clock.advance(ev.time);
      pushes += service.handlePublish(ev).pages;
    } else {
      const auto& r = workload_.requests[ri++];
      clock.advance(r.time);
      hits += service.handleRequest(r.proxy, r.page).hit;
    }
  }
  EXPECT_EQ(hits, fromSim.hits());
  EXPECT_EQ(pushes, fromSim.traffic().pushPages);
}

TEST_F(IntegrationTest, LowerSubscriptionQualityNeverHelpsSr) {
  const Workload degraded = buildWorkload(miniParams(0.25));
  SimConfig c;
  c.strategy = StrategyKind::kSR;
  c.capacityFraction = 0.05;
  const auto perfect = Simulator(workload_, network_, c).run();
  const auto noisy = Simulator(degraded, network_, c).run();
  EXPECT_LT(noisy.hitRatio(), perfect.hitRatio());
}

TEST_F(IntegrationTest, MixedTrafficExtensionRuns) {
  // Future-work scenario: 30% of requests are not notification-driven.
  WorkloadParams p = miniParams();
  p.request.notificationDrivenFraction = 0.7;
  const Workload mixed = buildWorkload(p);
  EXPECT_LT(mixed.totalSubscriptions(), mixed.requests.size());
  SimConfig c;
  c.strategy = StrategyKind::kSG2;
  c.capacityFraction = 0.05;
  const auto m = Simulator(mixed, network_, c).run();
  EXPECT_GT(m.hitRatio(), 0.0);
}

TEST_F(IntegrationTest, SubscriptionChurnDegradesGracefully) {
  WorkloadParams p = miniParams();
  p.subscription.churnPerDay = 0.5;
  const Workload churned = buildWorkload(p);
  EXPECT_FALSE(churned.churn.empty());
  EXPECT_NO_THROW(churned.validate());
  SimConfig c;
  c.strategy = StrategyKind::kSR;
  c.capacityFraction = 0.05;
  const double stable = run(StrategyKind::kSR).hitRatio();
  const double withChurn = Simulator(churned, network_, c).run().hitRatio();
  // Churn corrupts the subscription signal for SR...
  EXPECT_LT(withChurn, stable);
  // ...but GD* is indifferent to it.
  SimConfig g;
  g.strategy = StrategyKind::kGDStar;
  g.beta = 2.0;
  g.capacityFraction = 0.05;
  const double gdStable = run(StrategyKind::kGDStar).hitRatio();
  const double gdChurn = Simulator(churned, network_, g).run().hitRatio();
  EXPECT_NEAR(gdChurn, gdStable, 0.02);
}

TEST_F(IntegrationTest, PerProxyRatiosAverageToGlobal) {
  const auto m = run(StrategyKind::kGDStar);
  // Weighted combination of per-proxy ratios must reproduce H.
  double hits = 0.0;
  std::uint64_t reqs = 0;
  std::map<ProxyId, std::uint64_t> perProxy;
  for (const auto& r : workload_.requests) ++perProxy[r.proxy];
  for (const auto& [proxy, n] : perProxy) {
    hits += m.proxyHitRatio(proxy) * static_cast<double>(n);
    reqs += n;
  }
  EXPECT_EQ(reqs, m.requests());
  EXPECT_NEAR(hits / static_cast<double>(reqs), m.hitRatio(), 1e-9);
}

}  // namespace
}  // namespace pscd
