#include "pscd/cache/oracle_strategy.h"

#include <gtest/gtest.h>

#include "pscd/cache/strategy_factory.h"
#include "pscd/sim/simulator.h"
#include "pscd/workload/workload.h"

namespace pscd {
namespace {

RequestSchedule schedule(
    std::initializer_list<std::pair<PageId, std::vector<SimTime>>> entries) {
  RequestSchedule s;
  for (const auto& [page, times] : entries) s.times[page] = times;
  return s;
}

PushContext push(PageId page, Bytes size, Version version = 0,
                 SimTime now = 0.0) {
  return PushContext{page, version, size, 1, now};
}

RequestContext req(PageId page, Bytes size, SimTime now,
                   Version latest = 0) {
  return RequestContext{page, latest, size, 1, now};
}

TEST(OracleTest, StoresOnlyPagesWithFutureRequests) {
  OracleStrategy s(100, schedule({{1, {10.0}}, {2, {}}}));
  EXPECT_TRUE(s.onPush(push(1, 40)).stored);
  EXPECT_FALSE(s.onPush(push(2, 40)).stored);  // never requested
  EXPECT_FALSE(s.onPush(push(3, 40)).stored);  // unknown page
}

TEST(OracleTest, PushedPageHitsAtScheduledTime) {
  OracleStrategy s(100, schedule({{1, {10.0, 20.0}}}));
  s.onPush(push(1, 40));
  EXPECT_TRUE(s.onRequest(req(1, 40, 10.0)).hit);
  EXPECT_TRUE(s.onRequest(req(1, 40, 20.0)).hit);
}

TEST(OracleTest, EvictsFarthestNextUse) {
  OracleStrategy s(100, schedule({{1, {100.0}}, {2, {10.0}}, {3, {5.0}}}));
  s.onPush(push(1, 50));
  s.onPush(push(2, 50));
  // Page 3 is needed soonest; page 1 (farthest use) must go.
  EXPECT_TRUE(s.onPush(push(3, 50)).stored);
  EXPECT_FALSE(s.onRequest(req(1, 50, 1.0)).hit);
  EXPECT_TRUE(s.onRequest(req(3, 50, 5.0)).hit);
  EXPECT_TRUE(s.onRequest(req(2, 50, 10.0)).hit);
}

TEST(OracleTest, DropsFullyConsumedPages) {
  OracleStrategy s(100, schedule({{1, {10.0}}, {2, {50.0}}}));
  s.onPush(push(1, 60));
  EXPECT_TRUE(s.onRequest(req(1, 60, 10.0)).hit);
  // Page 1 has no future use left; pushing page 2 reclaims its space.
  EXPECT_TRUE(s.onPush(push(2, 60, 0, 11.0)).stored);
}

TEST(OracleTest, StaleCopyRefetched) {
  OracleStrategy s(100, schedule({{1, {10.0, 20.0}}}));
  s.onPush(push(1, 40, 0));
  const auto out = s.onRequest(req(1, 40, 10.0, /*latest=*/2));
  EXPECT_FALSE(out.hit);
  EXPECT_TRUE(out.stale);
  EXPECT_TRUE(out.storedAfterMiss);  // still needed at t=20
  EXPECT_TRUE(s.onRequest(req(1, 40, 20.0, 2)).hit);
}

TEST(OracleTest, RejectsUnsortedSchedule) {
  EXPECT_THROW(OracleStrategy(100, schedule({{1, {5.0, 1.0}}})),
               std::invalid_argument);
}

TEST(OracleTest, BuildSchedulesCoversWholeWorkload) {
  WorkloadParams p = newsTraceParams();
  p.publishing.numPages = 200;
  p.publishing.numUpdatedPages = 80;
  p.request.totalRequests = 4000;
  p.request.numProxies = 6;
  p.request.minServerPool = 2;
  const Workload w = buildWorkload(p);
  const auto schedules = buildRequestSchedules(w);
  ASSERT_EQ(schedules.size(), 6u);
  std::size_t total = 0;
  for (const auto& s : schedules) {
    for (const auto& [page, times] : s.times) {
      EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
      total += times.size();
    }
  }
  EXPECT_EQ(total, w.requests.size());
}

TEST(OracleTest, BeatsEveryOnlineStrategyOnRealWorkload) {
  // The defining property of a clairvoyant bound.
  WorkloadParams p = newsTraceParams();
  p.publishing.numPages = 400;
  p.publishing.numUpdatedPages = 160;
  p.publishing.maxVersionsPerPage = 25;
  p.request.totalRequests = 12000;
  p.request.numProxies = 8;
  p.request.minServerPool = 3;
  const Workload w = buildWorkload(p);
  Rng rng(3);
  const Network net(NetworkParams{.numProxies = 8}, rng);
  const auto schedules = buildRequestSchedules(w);

  SimConfig sc;
  sc.capacityFraction = 0.05;
  sc.strategyFactory = [&schedules](ProxyId pr, const StrategyParams& sp) {
    return std::make_unique<OracleStrategy>(sp.capacity, schedules[pr]);
  };
  const double oracle = Simulator(w, net, sc).run().hitRatio();

  sc.strategyFactory = nullptr;
  sc.beta = 2.0;
  for (const StrategyKind kind :
       {StrategyKind::kGDStar, StrategyKind::kSG2, StrategyKind::kSR}) {
    sc.strategy = kind;
    EXPECT_GE(oracle + 1e-9, Simulator(w, net, sc).run().hitRatio())
        << strategyName(kind);
  }
}

}  // namespace
}  // namespace pscd
