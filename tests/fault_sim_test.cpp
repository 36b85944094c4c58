// Failure-layer tests: the service's recovery semantics (push loss,
// retry, degraded stale serving, publisher failover, cold vs warm
// restart), the cachedVersion probe across every strategy, the
// simulator's fault integration (zero-fault bit-identity, availability
// degradation, seed reproducibility), and the satellite SimConfig range
// validation.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "pscd/cache/strategy_factory.h"
#include "pscd/core/service.h"
#include "pscd/sim/simulator.h"
#include "pscd/topology/network.h"
#include "pscd/util/check.h"
#include "pscd/util/rng.h"
#include "pscd/workload/workload.h"

namespace pscd {
namespace {

constexpr StrategyKind kAllKinds[] = {
    StrategyKind::kGDStar, StrategyKind::kSUB,  StrategyKind::kSG1,
    StrategyKind::kSG2,    StrategyKind::kSR,   StrategyKind::kDM,
    StrategyKind::kDCFP,   StrategyKind::kDCAP, StrategyKind::kDCLAP,
    StrategyKind::kLRU,    StrategyKind::kGDS,  StrategyKind::kLFUDA,
};

// ------------------------------------------------- cachedVersion probe --

TEST(CachedVersionProbe, AgreesWithStoreStateForEveryStrategy) {
  for (const StrategyKind kind : kAllKinds) {
    StrategyParams sp;
    sp.capacity = 10000;
    sp.fetchCost = 1.0;
    const auto strat = makeStrategy(kind, sp);
    SCOPED_TRACE(strategyName(kind));
    EXPECT_FALSE(strat->cachedVersion(1).has_value());
    // Store page 1 at version 2 through whichever path the strategy
    // supports (push for push-capable, request otherwise) and check the
    // probe against the outcome the strategy itself reported.
    bool stored = false;
    if (strat->pushCapable()) {
      PushContext push;
      push.page = 1;
      push.version = 2;
      push.size = 100;
      push.subCount = 3;
      push.now = 10.0;
      stored = strat->onPush(push).stored;
    }
    RequestContext req;
    req.page = 1;
    req.latestVersion = 2;
    req.size = 100;
    req.subCount = 3;
    req.now = 20.0;
    const RequestOutcome out = strat->onRequest(req);
    EXPECT_EQ(out.hit, stored);  // a stored push copy must serve the hit
    stored = stored || out.storedAfterMiss;
    ASSERT_TRUE(stored);  // an empty 10 KB cache has no reason to refuse
    const std::optional<Version> cached = strat->cachedVersion(1);
    ASSERT_TRUE(cached.has_value());
    EXPECT_EQ(*cached, 2u);
    EXPECT_FALSE(strat->cachedVersion(99).has_value());
    // The probe must not mutate anything: repeated probes agree and the
    // strategy still passes its own invariants.
    EXPECT_EQ(strat->cachedVersion(1), cached);
    EXPECT_NO_THROW(strat->checkInvariants());
  }
}

// ------------------------------------------------------ engine faults --

class DiscardSink final : public EventSink {
 public:
  void onPush(const PushDelivery&) override {}
  void onRequest(const RequestDelivery&) override {}
};

class EngineFaultTest : public ::testing::Test {
 protected:
  EngineFaultTest() : rng_(11), network_(makeParams(), rng_) {}

  static NetworkParams makeParams() {
    return NetworkParams{.numProxies = 3, .numTransitNodes = 2};
  }

  /// A service under `faults` with an empty fault schedule: every proxy
  /// and link stays up until the test hands it a fault event.
  DistributionService makeEngine(
      const FaultConfig& faults, StrategyKind kind = StrategyKind::kSG2,
      PushScheme scheme = PushScheme::kAlwaysPushing) {
    ServiceConfig sc;
    sc.engine.strategy = kind;
    sc.engine.pushScheme = scheme;
    sc.engine.proxyCapacities = {100000, 100000, 100000};
    sc.faults = faults;
    return DistributionService(network_, clock_, sink_, std::move(sc));
  }

  static void proxyEvent(DistributionService& service, ProxyId proxy,
                         FaultEventKind kind) {
    FaultEvent event;
    event.kind = kind;
    event.proxy = proxy;
    service.handleFault(event);
  }

  /// Crashes `proxy` the way a scheduled fault event does.
  static void crash(DistributionService& service, ProxyId proxy) {
    proxyEvent(service, proxy, FaultEventKind::kProxyDown);
  }

  /// Partitions `proxy` from the publisher by downing every link at its
  /// node.
  void isolate(DistributionService& service, ProxyId proxy) const {
    const NodeId node = network_.proxyNode(proxy);
    for (const Graph::Edge& edge : network_.graph().neighbors(node)) {
      FaultEvent event;
      event.kind = FaultEventKind::kLinkDown;
      event.linkA = node;
      event.linkB = edge.to;
      service.handleFault(event);
    }
  }

  /// Publishes `page` at `version` to every proxy subscribed to it.
  static PushDelivery publishAll(DistributionService& service, PageId page,
                                 Version version) {
    PublishEvent ev;
    ev.time = 1.0;
    ev.page = page;
    ev.version = version;
    ev.size = 500;
    return service.handlePublish(ev);
  }

  RequestDelivery request(DistributionService& service, ProxyId proxy,
                          PageId page) {
    clock_.advance(2.0);
    return service.handleRequest(proxy, page);
  }

  Rng rng_;
  Network network_;
  ManualClock clock_;
  DiscardSink sink_;
};

TEST_F(EngineFaultTest, LostPushesAreAccountedUnderAlwaysPushing) {
  FaultConfig fc;
  fc.pushLossProbability = 1.0;
  auto engine = makeEngine(fc, StrategyKind::kSG2, PushScheme::kAlwaysPushing);
  for (ProxyId p = 0; p < 3; ++p) {
    engine.broker().subscribeAggregated(p, 7, 1);
  }
  const PushDelivery s = publishAll(engine, 7, 0);
  EXPECT_EQ(s.proxiesNotified, 3u);
  EXPECT_EQ(s.proxiesStored, 0u);
  EXPECT_EQ(s.pages, 0u);
  EXPECT_EQ(s.bytes, 0u);
  EXPECT_EQ(s.pagesLost, 3u);
  EXPECT_EQ(s.bytesLost, 1500u);
  for (ProxyId p = 0; p < 3; ++p) {
    EXPECT_FALSE(engine.strategy(p).cachedVersion(7).has_value());
  }
}

TEST_F(EngineFaultTest, LostPushesCostNothingUnderPushingWhenNecessary) {
  FaultConfig fc;
  fc.proxyFailuresPerDay = 1.0;
  auto engine =
      makeEngine(fc, StrategyKind::kSG2, PushScheme::kPushingWhenNecessary);
  for (ProxyId p = 0; p < 3; ++p) {
    engine.broker().subscribeAggregated(p, 7, 1);
  }
  crash(engine, 0);
  crash(engine, 2);
  const PushDelivery s = publishAll(engine, 7, 0);
  // The meta-exchange already failed for proxies 0 and 2, so no bytes
  // were wasted on them; proxy 1 stored normally.
  EXPECT_EQ(s.pagesLost, 0u);
  EXPECT_EQ(s.bytesLost, 0u);
  EXPECT_EQ(s.proxiesStored, 1u);
  EXPECT_TRUE(engine.strategy(1).cachedVersion(7).has_value());
  EXPECT_FALSE(engine.strategy(0).cachedVersion(7).has_value());
}

TEST_F(EngineFaultTest, RetriesThenServesStaleFromCache) {
  FaultConfig fc;
  fc.fetchFailureProbability = 1.0;
  fc.retry.maxRetries = 2;
  auto engine = makeEngine(fc);
  engine.broker().subscribeAggregated(0, 7, 1);
  publishAll(engine, 7, 0);  // proxy 0 stores version 0
  ASSERT_TRUE(engine.strategy(0).cachedVersion(7).has_value());
  // Proxy 0 is not notified of version 1, so its copy goes stale.
  engine.broker().unsubscribeAggregated(0, 7, 1);
  publishAll(engine, 7, 1);

  const Bytes usedBefore = engine.strategy(0).usedBytes();
  const RequestDelivery s = request(engine, 0, 7);
  EXPECT_TRUE(s.servedStale);
  EXPECT_TRUE(s.stale);
  EXPECT_FALSE(s.hit);
  EXPECT_FALSE(s.unavailable);
  EXPECT_EQ(s.retries, 2u);
  EXPECT_EQ(s.bytesTransferred, 0u);
  // Degraded serving bypasses the strategy: no bookkeeping moved.
  EXPECT_EQ(engine.strategy(0).usedBytes(), usedBefore);
  EXPECT_EQ(*engine.strategy(0).cachedVersion(7), 0u);
}

TEST_F(EngineFaultTest, UncachedPageWithFailedFetchIsUnavailable) {
  FaultConfig fc;
  fc.fetchFailureProbability = 1.0;
  fc.retry.maxRetries = 3;
  auto engine = makeEngine(fc);
  publishAll(engine, 7, 0);  // no subscriptions: nothing cached anywhere
  const RequestDelivery s = request(engine, 0, 7);
  EXPECT_TRUE(s.unavailable);
  EXPECT_FALSE(s.servedStale);
  EXPECT_EQ(s.retries, 3u);
  EXPECT_EQ(s.bytesTransferred, 0u);
}

TEST_F(EngineFaultTest, FreshHitIsImmuneToFetchFailures) {
  FaultConfig fc;
  fc.fetchFailureProbability = 1.0;
  fc.retry.maxRetries = 2;
  auto engine = makeEngine(fc);
  engine.broker().subscribeAggregated(0, 7, 1);
  publishAll(engine, 7, 0);
  const RequestDelivery s = request(engine, 0, 7);
  EXPECT_TRUE(s.hit);
  EXPECT_EQ(s.retries, 0u);
  EXPECT_FALSE(s.servedStale);
}

TEST_F(EngineFaultTest, DownProxyFailsOverToThePublisher) {
  FaultConfig fc;
  fc.proxyFailuresPerDay = 1.0;
  auto engine = makeEngine(fc);
  engine.broker().subscribeAggregated(0, 7, 1);
  publishAll(engine, 7, 0);
  crash(engine, 0);
  const Bytes usedBefore = engine.strategy(0).usedBytes();
  const RequestDelivery s = request(engine, 0, 7);
  EXPECT_TRUE(s.failover);
  EXPECT_FALSE(s.hit);
  EXPECT_FALSE(s.unavailable);
  EXPECT_EQ(s.bytesTransferred, 500u);
  // The crashed proxy's cache is untouched by the direct fetch.
  EXPECT_EQ(engine.strategy(0).usedBytes(), usedBefore);
}

TEST_F(EngineFaultTest, DownProxyWithoutFailoverIsUnavailable) {
  FaultConfig fc;
  fc.proxyFailuresPerDay = 1.0;
  fc.publisherFailover = false;
  fc.retry.maxRetries = 4;
  auto engine = makeEngine(fc);
  publishAll(engine, 7, 0);
  crash(engine, 0);
  const RequestDelivery s = request(engine, 0, 7);
  EXPECT_TRUE(s.unavailable);
  EXPECT_FALSE(s.failover);
  EXPECT_EQ(s.retries, 0u);
}

TEST_F(EngineFaultTest, PartitionedProxyCannotFetch) {
  FaultConfig fc;
  fc.linkFailuresPerDay = 1.0;
  fc.retry.maxRetries = 3;
  auto engine = makeEngine(fc);
  engine.broker().subscribeAggregated(0, 7, 1);
  publishAll(engine, 7, 0);
  isolate(engine, 0);
  // The push of version 1 cannot reach the partitioned proxy (pushes
  // are never lost at random here).
  EXPECT_EQ(publishAll(engine, 7, 1).pagesLost, 1u);
  const RequestDelivery s = request(engine, 0, 7);
  // Every attempt times out even though fetches never fail at random
  // here; the stale copy still saves the request.
  EXPECT_TRUE(s.servedStale);
  EXPECT_EQ(s.retries, 3u);
}

TEST_F(EngineFaultTest, ColdRestartWipesTheCacheWarmKeepsIt) {
  for (const bool warm : {true, false}) {
    SCOPED_TRACE(warm ? "warm restart" : "cold restart");
    FaultConfig fc;
    fc.proxyFailuresPerDay = 1.0;
    fc.warmRestart = warm;
    auto engine = makeEngine(fc);
    engine.broker().subscribeAggregated(0, 7, 1);
    publishAll(engine, 7, 0);
    ASSERT_GT(engine.strategy(0).usedBytes(), 0u);
    crash(engine, 0);
    proxyEvent(engine, 0, FaultEventKind::kProxyUp);
    EXPECT_EQ(engine.strategy(0).usedBytes() > 0, warm);
    EXPECT_EQ(engine.strategy(0).cachedVersion(7).has_value(), warm);
    // The restarted strategy is fully functional and keeps its capacity.
    EXPECT_EQ(engine.strategy(0).capacityBytes(), 100000u);
    EXPECT_NO_THROW(engine.checkInvariants());
    EXPECT_THROW(proxyEvent(engine, 9, FaultEventKind::kProxyUp),
                 CheckFailure);
  }
}

// --------------------------------------------------- simulator faults --

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

class FaultSimTest : public ::testing::Test {
 protected:
  FaultSimTest()
      : workload_(buildWorkload(tinyParams())),
        rng_(9),
        network_(NetworkParams{.numProxies = 8, .numTransitNodes = 4},
                 rng_) {}

  SimMetrics run(const FaultConfig& faults = {},
                 StrategyKind kind = StrategyKind::kSG2) {
    SimConfig c;
    c.strategy = kind;
    c.beta = 2.0;
    c.capacityFraction = 0.05;
    c.faults = faults;
    return Simulator(workload_, network_, c).run();
  }

  static FaultConfig heavyFaults(std::uint64_t seed = 5) {
    FaultConfig fc;
    fc.seed = seed;
    fc.proxyFailuresPerDay = 2.0;
    fc.proxyMeanDowntimeHours = 1.0;
    fc.linkFailuresPerDay = 4.0;
    fc.linkMeanDowntimeHours = 0.5;
    fc.pushLossProbability = 0.05;
    fc.fetchFailureProbability = 0.5;
    fc.retry.maxRetries = 1;
    return fc;
  }

  Workload workload_;
  Rng rng_;
  Network network_;
};

TEST_F(FaultSimTest, DisabledFaultLayerIsBitIdentical) {
  const SimMetrics base = run();
  FaultConfig noFaults;
  noFaults.seed = 999;  // differs from default, but enabled() is false
  noFaults.retry.maxRetries = 7;
  const SimMetrics same = run(noFaults);
  EXPECT_EQ(base.hits(), same.hits());
  EXPECT_EQ(base.requests(), same.requests());
  EXPECT_EQ(base.staleMisses(), same.staleMisses());
  EXPECT_EQ(base.traffic().pushBytes, same.traffic().pushBytes);
  EXPECT_EQ(base.traffic().fetchBytes, same.traffic().fetchBytes);
  EXPECT_EQ(base.meanResponseTime(), same.meanResponseTime());
  // Fault-free runs report a perfect overlay.
  EXPECT_DOUBLE_EQ(base.availability(), 1.0);
  EXPECT_EQ(base.staleServes(), 0u);
  EXPECT_EQ(base.totalRetries(), 0u);
  EXPECT_EQ(base.unavailableRequests(), 0u);
  EXPECT_EQ(base.traffic().lostPushPages, 0u);
}

TEST_F(FaultSimTest, HeavyFaultsDegradeServiceVisibly) {
  const SimMetrics m = run(heavyFaults());
  EXPECT_LT(m.availability(), 1.0);
  EXPECT_GT(m.availability(), 0.5);
  EXPECT_GT(m.staleServes(), 0u);
  EXPECT_GT(m.totalRetries(), 0u);
  EXPECT_GT(m.failovers(), 0u);
  EXPECT_GT(m.unavailableRequests(), 0u);
  EXPECT_GT(m.traffic().lostPushPages, 0u);
  EXPECT_GT(m.unavailabilityWeightedBytes(),
            static_cast<double>(m.traffic().totalBytes()));
  // Backoff latency shows up in the response time of served requests.
  const SimMetrics base = run();
  EXPECT_GT(m.meanResponseTime(), base.meanResponseTime());
}

TEST_F(FaultSimTest, SameFaultSeedReproducesIdenticalMetrics) {
  const SimMetrics a = run(heavyFaults(5));
  const SimMetrics b = run(heavyFaults(5));
  EXPECT_EQ(a.hits(), b.hits());
  EXPECT_EQ(a.staleServes(), b.staleServes());
  EXPECT_EQ(a.totalRetries(), b.totalRetries());
  EXPECT_EQ(a.unavailableRequests(), b.unavailableRequests());
  EXPECT_EQ(a.traffic().lostPushBytes, b.traffic().lostPushBytes);
  EXPECT_EQ(a.meanResponseTime(), b.meanResponseTime());
}

TEST_F(FaultSimTest, DifferentFaultSeedChangesTheRun) {
  const SimMetrics a = run(heavyFaults(5));
  const SimMetrics b = run(heavyFaults(6));
  const bool identical = a.hits() == b.hits() &&
                         a.totalRetries() == b.totalRetries() &&
                         a.unavailableRequests() == b.unavailableRequests();
  EXPECT_FALSE(identical);
}

TEST_F(FaultSimTest, WarmRestartRecoversHitRatio) {
  FaultConfig crashes;
  crashes.seed = 5;
  crashes.proxyFailuresPerDay = 6.0;
  crashes.proxyMeanDowntimeHours = 0.5;
  const SimMetrics cold = run(crashes);
  crashes.warmRestart = true;
  const SimMetrics warm = run(crashes);
  // Same crash schedule (same seed), so the only difference is whether
  // caches survive the restart.
  EXPECT_GE(warm.hitRatio(), cold.hitRatio());
  EXPECT_NE(warm.hits(), cold.hits());
}

// ------------------------------------------ SimConfig range validation --

TEST_F(FaultSimTest, RejectsOutOfRangeLatencyAndFractionConfig) {
  const auto expectRejected = [&](void (*mutate)(SimConfig&)) {
    SimConfig c;
    mutate(c);
    EXPECT_THROW(Simulator(workload_, network_, c), CheckFailure);
  };
  expectRejected([](SimConfig& c) { c.localLatencyMs = -1.0; });
  expectRejected([](SimConfig& c) {
    c.localLatencyMs = std::numeric_limits<double>::quiet_NaN();
  });
  expectRejected([](SimConfig& c) { c.remoteLatencyMsPerUnit = -5.0; });
  expectRejected([](SimConfig& c) {
    c.remoteLatencyMsPerUnit = std::numeric_limits<double>::infinity();
  });
  expectRejected([](SimConfig& c) {
    c.capacityFraction = std::numeric_limits<double>::quiet_NaN();
  });
  expectRejected([](SimConfig& c) {
    c.beta = std::numeric_limits<double>::quiet_NaN();
  });
  expectRejected([](SimConfig& c) { c.dcInitialPcFraction = 1.5; });
  expectRejected([](SimConfig& c) { c.dcMinPcFraction = -0.1; });
  expectRejected([](SimConfig& c) {
    c.dcMinPcFraction = 0.6;
    c.dcMaxPcFraction = 0.4;
    c.dcInitialPcFraction = 0.5;
  });
  expectRejected([](SimConfig& c) { c.faults.pushLossProbability = 2.0; });
  expectRejected([](SimConfig& c) { c.faults.retry.backoffFactor = 0.0; });
}

TEST_F(FaultSimTest, FixedPartitionMayStartOutsideTheLapWindow) {
  // The [min, max] window bounds DC-LAP only: DC-FP at a 10% push cache
  // (below the default 25% minimum) is a valid configuration.
  SimConfig c;
  c.strategy = StrategyKind::kDCFP;
  c.dcInitialPcFraction = 0.1;
  const SimMetrics m = Simulator(workload_, network_, c).run();
  EXPECT_EQ(m.requests(), workload_.requests.size());
}

TEST_F(FaultSimTest, LimitedAdaptivePartitionMustStartInsideItsWindow) {
  SimConfig c;
  c.strategy = StrategyKind::kDCLAP;
  c.dcInitialPcFraction = 0.1;
  EXPECT_THROW(Simulator(workload_, network_, c), CheckFailure);
}

TEST_F(FaultSimTest, ExistingInvalidArgumentContractsAreKept) {
  SimConfig c;
  c.capacityFraction = 0.0;
  EXPECT_THROW(Simulator(workload_, network_, c), std::invalid_argument);
  c.capacityFraction = 1.5;
  EXPECT_THROW(Simulator(workload_, network_, c), std::invalid_argument);
}

}  // namespace
}  // namespace pscd
