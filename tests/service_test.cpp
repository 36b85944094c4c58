// DistributionService as its drivers see it: every handlePublish/
// handleRequest return is the very record its EventSink received, with
// the failure layer off and with every failure process on; a request is
// priced from that record; and a bad proxy throws std::out_of_range in
// both modes.
#include "pscd/core/service.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "pscd/util/rng.h"

namespace pscd {
namespace {

class ManualClock final : public Clock {
 public:
  SimTime now() const override { return now_; }
  void advance(SimTime t) { now_ = t; }

 private:
  SimTime now_ = 0.0;
};

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

}  // namespace
}  // namespace pscd
