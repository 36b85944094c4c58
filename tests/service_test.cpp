// DistributionService as its drivers see it: every handlePublish/
// handleRequest return is the very record its EventSink received, with
// the failure layer off and with every failure process on; a request is
// priced from that record; a push is stamped with its event's time; a
// bad proxy throws std::out_of_range in both modes; and a strategy
// factory builds each proxy's strategy, again on every cold restart.
#include "pscd/core/service.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "pscd/util/rng.h"

namespace pscd {
namespace {

class RecordingSink final : public EventSink {
 public:
  void onPush(const PushDelivery& d) override { pushes.push_back(d); }
  void onRequest(const RequestDelivery& d) override { requests.push_back(d); }

  std::vector<PushDelivery> pushes;
  std::vector<RequestDelivery> requests;
};

/// Every failure process on, at rates that reach each degraded outcome
/// within a few thousand operations.
FaultConfig everyFault() {
  FaultConfig fc;
  fc.seed = 17;
  fc.proxyFailuresPerDay = 4.0;
  fc.proxyMeanDowntimeHours = 1.0;
  fc.linkFailuresPerDay = 4.0;
  fc.linkMeanDowntimeHours = 1.0;
  fc.pushLossProbability = 0.1;
  fc.fetchFailureProbability = 0.3;
  fc.retry.maxRetries = 1;
  return fc;
}

/// Proxy crashes and restarts only; the restarts are warm or cold.
FaultConfig crashes(bool warm) {
  FaultConfig fc;
  fc.seed = 5;
  fc.proxyFailuresPerDay = 4.0;
  fc.proxyMeanDowntimeHours = 1.0;
  fc.warmRestart = warm;
  return fc;
}

using FactoryCall = std::pair<ProxyId, StrategyParams>;

/// A factory that records each call in `calls` and then builds what
/// makeStrategy(kind, ·) would.
StrategyFactory recordingFactory(std::vector<FactoryCall>& calls,
                                 StrategyKind kind) {
  return [&calls, kind](ProxyId proxy, const StrategyParams& p) {
    calls.emplace_back(proxy, p);
    return makeStrategy(kind, p);
  };
}

void expectSameParams(const StrategyParams& a, const StrategyParams& b) {
  EXPECT_EQ(a.capacity, b.capacity);
  EXPECT_EQ(a.fetchCost, b.fetchCost);
  EXPECT_EQ(a.beta, b.beta);
  EXPECT_EQ(a.dcInitialPcFraction, b.dcInitialPcFraction);
  EXPECT_EQ(a.dcMinPcFraction, b.dcMinPcFraction);
  EXPECT_EQ(a.dcMaxPcFraction, b.dcMaxPcFraction);
}

/// How often each failure-layer outcome showed up in a run.
struct Outcomes {
  std::uint64_t lostPushes = 0;
  std::uint64_t retried = 0;
  std::uint64_t servedStale = 0;
  std::uint64_t failovers = 0;
  std::uint64_t unavailable = 0;
};

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest()
      : rng_(7),
        network_(NetworkParams{.numProxies = 3, .numTransitNodes = 3},
                 rng_) {}

  ServiceConfig makeConfig(const FaultConfig& faults) const {
    ServiceConfig sc;
    sc.engine.strategy = StrategyKind::kSG2;
    sc.engine.proxyCapacities.assign(network_.numProxies(), 4000);
    sc.faults = faults;
    sc.faultHorizon = kDay;
    return sc;
  }

  /// Drives a seeded mix of publishes and requests, with the service's
  /// fault schedule merged in, and requires every returned record to
  /// equal the one the sink received for that operation.
  void ExpectAnswersMatchTheSink(const FaultConfig& faults, Outcomes& seen) {
    ManualClock clock;
    RecordingSink sink;
    DistributionService service(network_, clock, sink, makeConfig(faults));
    constexpr PageId kPages = 40;
    for (ProxyId p = 0; p < network_.numProxies(); ++p) {
      for (PageId page = p; page < kPages; page += 2) {
        service.broker().subscribeAggregated(p, page, 1 + p);
      }
    }
    const std::vector<FaultEvent>& plan = service.faultPlan().events;
    std::size_t fi = 0;
    Rng ops(2024);
    Version version = 0;
    for (int op = 0; op < 3000; ++op) {
      const SimTime now = 28.0 * op;  // the run spans the fault horizon
      for (; fi < plan.size() && plan[fi].time <= now; ++fi) {
        clock.advance(plan[fi].time);
        service.handleFault(plan[fi]);
      }
      clock.advance(now);
      if (op < static_cast<int>(kPages) || ops.uniform() < 0.2) {
        const auto page = op < static_cast<int>(kPages)
                              ? static_cast<PageId>(op)
                              : static_cast<PageId>(ops.uniformInt(kPages));
        const Bytes size = 200 + ops.uniformInt(std::uint64_t{800});
        const PushDelivery d =
            service.handlePublish(PublishEvent{now, page, ++version, size});
        ASSERT_FALSE(sink.pushes.empty());
        EXPECT_EQ(d, sink.pushes.back()) << "op " << op;
        EXPECT_EQ(sink.pushes.size() + sink.requests.size(),
                  static_cast<std::size_t>(op) + 1);
        EXPECT_EQ(d.time, now);
        seen.lostPushes += d.pagesLost;
      } else {
        const auto proxy =
            static_cast<ProxyId>(ops.uniformInt(network_.numProxies()));
        const auto page = static_cast<PageId>(ops.uniformInt(kPages));
        const RequestDelivery d = service.handleRequest(proxy, page);
        ASSERT_FALSE(sink.requests.empty());
        EXPECT_EQ(d, sink.requests.back()) << "op " << op;
        EXPECT_EQ(sink.pushes.size() + sink.requests.size(),
                  static_cast<std::size_t>(op) + 1);
        EXPECT_EQ(d.proxy, proxy);
        EXPECT_EQ(d.time, now);
        if (d.unavailable) {
          EXPECT_EQ(d.responseTimeMs, 0.0) << "op " << op;
        } else {
          EXPECT_GE(d.responseTimeMs, 5.0) << "op " << op;
        }
        seen.retried += d.retries > 0 ? 1 : 0;
        seen.servedStale += d.servedStale ? 1 : 0;
        seen.failovers += d.failover ? 1 : 0;
        seen.unavailable += d.unavailable ? 1 : 0;
      }
    }
  }

  /// Builds a service whose factory records each call in `calls`,
  /// applies its whole fault plan, and returns the proxies that came
  /// back up, in plan order.
  std::vector<ProxyId> RunPlanWithFactory(const FaultConfig& faults,
                                          std::vector<FactoryCall>& calls) {
    ServiceConfig sc = makeConfig(faults);
    sc.engine.strategyFactory = recordingFactory(calls, sc.engine.strategy);
    ManualClock clock;
    RecordingSink sink;
    DistributionService service(network_, clock, sink, std::move(sc));
    EXPECT_EQ(calls.size(), network_.numProxies());
    std::vector<ProxyId> ups;
    for (const FaultEvent& ev : service.faultPlan().events) {
      clock.advance(ev.time);
      service.handleFault(ev);
      if (ev.kind == FaultEventKind::kProxyUp) ups.push_back(ev.proxy);
    }
    return ups;
  }

  Rng rng_;
  Network network_;
};

TEST_F(ServiceTest, FaultFreeAnswersAreTheSinkRecords) {
  Outcomes seen;
  ExpectAnswersMatchTheSink(FaultConfig{}, seen);
  EXPECT_EQ(seen.lostPushes, 0u);
  EXPECT_EQ(seen.retried, 0u);
  EXPECT_EQ(seen.servedStale, 0u);
  EXPECT_EQ(seen.failovers, 0u);
  EXPECT_EQ(seen.unavailable, 0u);
}

TEST_F(ServiceTest, FaultedAnswersAreTheSinkRecords) {
  Outcomes seen;
  ExpectAnswersMatchTheSink(everyFault(), seen);
  // Every degraded path was taken at least once.
  EXPECT_GT(seen.lostPushes, 0u);
  EXPECT_GT(seen.retried, 0u);
  EXPECT_GT(seen.servedStale, 0u);
  EXPECT_GT(seen.failovers, 0u);
  EXPECT_GT(seen.unavailable, 0u);
}

TEST_F(ServiceTest, RequestsArePricedByTheLatencyModel) {
  ManualClock clock;
  RecordingSink sink;
  DistributionService service(network_, clock, sink,
                              makeConfig(FaultConfig{}));
  service.broker().subscribeAggregated(0, 1, 1);
  service.handlePublish(PublishEvent{0.0, 1, 1, 100});
  const RequestDelivery hit = service.handleRequest(0, 1);
  ASSERT_TRUE(hit.hit);
  EXPECT_EQ(hit.responseTimeMs, 5.0);
  const RequestDelivery miss = service.handleRequest(1, 1);
  ASSERT_FALSE(miss.hit);
  EXPECT_EQ(miss.responseTimeMs, 5.0 + 100.0 * network_.fetchCost(1));
}

TEST_F(ServiceTest, PushRecordCarriesTheEventTime) {
  // The push is stamped with the time its strategies saw (event.time),
  // not with a second read of the Clock.
  ManualClock clock;
  RecordingSink sink;
  DistributionService service(network_, clock, sink,
                              makeConfig(FaultConfig{}));
  service.broker().subscribeAggregated(0, 1, 1);
  clock.advance(100.0);
  const PushDelivery d = service.handlePublish(PublishEvent{40.0, 1, 1, 100});
  EXPECT_EQ(d.time, 40.0);
  ASSERT_EQ(sink.pushes.size(), 1u);
  EXPECT_EQ(sink.pushes.back().time, 40.0);
}

TEST_F(ServiceTest, BadProxyThrowsOutOfRangeInBothModes) {
  for (const FaultConfig& faults : {FaultConfig{}, everyFault()}) {
    ManualClock clock;
    RecordingSink sink;
    DistributionService service(network_, clock, sink, makeConfig(faults));
    service.handlePublish(PublishEvent{0.0, 1, 1, 100});
    EXPECT_THROW(service.handleRequest(7, 1), std::out_of_range)
        << "faults " << (faults.enabled() ? "on" : "off");
    EXPECT_TRUE(sink.requests.empty());
  }
}

TEST_F(ServiceTest, DegradedRequestsArePricedWithTheirBackoff) {
  FaultConfig fc;
  fc.proxyFailuresPerDay = 1.0;
  fc.fetchFailureProbability = 1.0;
  fc.retry.maxRetries = 2;
  fc.warmRestart = true;
  ManualClock clock;
  RecordingSink sink;
  DistributionService service(network_, clock, sink, makeConfig(fc));
  service.broker().subscribeAggregated(0, 1, 1);
  service.handlePublish(PublishEvent{0.0, 1, 1, 100});
  // Version 2 is lost to the crashed proxy, which restarts warm with
  // version 1 still cached.
  FaultEvent event;
  event.proxy = 0;
  event.kind = FaultEventKind::kProxyDown;
  service.handleFault(event);
  service.handlePublish(PublishEvent{0.0, 1, 2, 100});
  event.kind = FaultEventKind::kProxyUp;
  service.handleFault(event);
  // Both fetch attempts fail: the stale copy is served after two
  // backoffs (50 + 100 ms); with no copy the request is unavailable.
  const RequestDelivery stale = service.handleRequest(0, 1);
  ASSERT_TRUE(stale.servedStale);
  EXPECT_EQ(stale.retries, 2u);
  EXPECT_EQ(stale.responseTimeMs, 5.0 + 50.0 + 100.0);
  const RequestDelivery failed = service.handleRequest(1, 1);
  ASSERT_TRUE(failed.unavailable);
  EXPECT_EQ(failed.responseTimeMs, 0.0);
}

TEST_F(ServiceTest, StrategyFactorySeesTheParamsOfMakeStrategy) {
  std::vector<FactoryCall> calls;
  ServiceConfig sc = makeConfig(FaultConfig{});
  sc.engine.strategy = StrategyKind::kDCLAP;
  sc.engine.beta = 1.5;
  sc.engine.dcInitialPcFraction = 0.4;
  sc.engine.dcMinPcFraction = 0.2;
  sc.engine.dcMaxPcFraction = 0.9;
  sc.engine.proxyCapacities = {1000, 2000, 3000};
  sc.engine.strategyFactory = recordingFactory(calls, sc.engine.strategy);
  ManualClock clock;
  RecordingSink sink;
  const DistributionService service(network_, clock, sink, std::move(sc));
  ASSERT_EQ(calls.size(), network_.numProxies());
  for (ProxyId p = 0; p < network_.numProxies(); ++p) {
    EXPECT_EQ(calls[p].first, p);
    expectSameParams(calls[p].second,
                     StrategyParams{.capacity = 1000 * (p + 1),
                                    .fetchCost = network_.fetchCost(p),
                                    .beta = 1.5,
                                    .dcInitialPcFraction = 0.4,
                                    .dcMinPcFraction = 0.2,
                                    .dcMaxPcFraction = 0.9});
    EXPECT_EQ(service.strategy(p).capacityBytes(), 1000 * (p + 1));
  }
}

TEST_F(ServiceTest, ColdRestartCallsTheFactoryOncePerProxyUp) {
  std::vector<FactoryCall> calls;
  const std::vector<ProxyId> ups = RunPlanWithFactory(crashes(false), calls);
  ASSERT_FALSE(ups.empty());
  const std::size_t n = network_.numProxies();
  ASSERT_EQ(calls.size(), n + ups.size());
  for (std::size_t i = 0; i < ups.size(); ++i) {
    EXPECT_EQ(calls[n + i].first, ups[i]);
    expectSameParams(calls[n + i].second, calls[ups[i]].second);
  }
}

TEST_F(ServiceTest, WarmRestartNeverCallsTheFactoryAgain) {
  std::vector<FactoryCall> calls;
  ASSERT_FALSE(RunPlanWithFactory(crashes(true), calls).empty());
  EXPECT_EQ(calls.size(), network_.numProxies());
}

}  // namespace
}  // namespace pscd
