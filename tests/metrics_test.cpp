#include "pscd/sim/metrics.h"

#include <gtest/gtest.h>

namespace pscd {
namespace {

RequestDelivery req(ProxyId proxy, SimTime t, bool hit, bool stale,
                    Bytes fetched, double responseTimeMs = 0.0) {
  RequestDelivery d;
  d.proxy = proxy;
  d.time = t;
  d.hit = hit;
  d.stale = stale;
  d.bytesTransferred = fetched;
  d.responseTimeMs = responseTimeMs;
  return d;
}

PushDelivery push(SimTime t, std::uint64_t pages, Bytes bytes) {
  PushDelivery d;
  d.time = t;
  d.pages = pages;
  d.bytes = bytes;
  return d;
}

TEST(MetricsTest, HitRatioAggregates) {
  SimMetrics m(3, 0);
  m.recordRequest(req(0, 1.0, true, false, 0));
  m.recordRequest(req(1, 2.0, false, false, 100));
  m.recordRequest(req(1, 3.0, true, false, 0));
  m.recordRequest(req(2, 4.0, false, true, 50));
  EXPECT_EQ(m.requests(), 4u);
  EXPECT_EQ(m.hits(), 2u);
  EXPECT_DOUBLE_EQ(m.hitRatio(), 0.5);
  EXPECT_EQ(m.staleMisses(), 1u);
}

TEST(MetricsTest, PerProxyRatios) {
  SimMetrics m(2, 0);
  m.recordRequest(req(0, 1.0, true, false, 0));
  m.recordRequest(req(0, 2.0, false, false, 10));
  m.recordRequest(req(1, 3.0, true, false, 0));
  EXPECT_DOUBLE_EQ(m.proxyHitRatio(0), 0.5);
  EXPECT_DOUBLE_EQ(m.proxyHitRatio(1), 1.0);
  EXPECT_THROW(m.proxyHitRatio(5), std::out_of_range);
}

TEST(MetricsTest, MeanResponseTimeAverages) {
  SimMetrics m(1, 0);
  m.recordRequest(req(0, 1.0, true, false, 0, 5.0));
  m.recordRequest(req(0, 2.0, false, false, 10, 105.0));
  EXPECT_DOUBLE_EQ(m.meanResponseTime(), 55.0);
}

TEST(MetricsTest, MeanResponseTimeEmptyIsZero) {
  SimMetrics m(1, 0);
  EXPECT_DOUBLE_EQ(m.meanResponseTime(), 0.0);
}

TEST(MetricsTest, EmptyRatiosAreZero) {
  SimMetrics m(1, 0);
  EXPECT_DOUBLE_EQ(m.hitRatio(), 0.0);
  EXPECT_DOUBLE_EQ(m.proxyHitRatio(0), 0.0);
}

TEST(MetricsTest, TrafficSplit) {
  SimMetrics m(1, 0);
  m.recordPush(push(1.0, 3, 300));
  m.recordRequest(req(0, 2.0, false, false, 120));
  EXPECT_EQ(m.traffic().pushPages, 3u);
  EXPECT_EQ(m.traffic().pushBytes, 300u);
  EXPECT_EQ(m.traffic().fetchPages, 1u);
  EXPECT_EQ(m.traffic().fetchBytes, 120u);
  EXPECT_EQ(m.traffic().totalPages(), 4u);
  EXPECT_EQ(m.traffic().totalBytes(), 420u);
}

TEST(MetricsTest, HitsGenerateNoTraffic) {
  SimMetrics m(1, 0);
  m.recordRequest(req(0, 1.0, true, false, 0));
  EXPECT_EQ(m.traffic().totalPages(), 0u);
}

TEST(MetricsTest, HourlySeriesPopulated) {
  SimMetrics m(2, 48);
  ASSERT_TRUE(m.hasHourly());
  EXPECT_EQ(m.hours(), 48u);
  m.recordRequest(req(0, 10.0, true, false, 0));
  m.recordRequest(req(0, 20.0, false, false, 100));
  m.recordPush(push(3700.0, 2, 500));
  EXPECT_DOUBLE_EQ(m.hourlyHitRatio(0), 0.5);
  EXPECT_DOUBLE_EQ(m.hourlyTrafficPages(0), 1.0);  // the fetch
  EXPECT_DOUBLE_EQ(m.hourlyTrafficPages(1), 2.0);  // the push
  EXPECT_EQ(m.hourlyTrafficBytes(1), 500u);
}

TEST(MetricsTest, HourlyDisabledThrows) {
  SimMetrics m(1, 0);
  EXPECT_FALSE(m.hasHourly());
  EXPECT_EQ(m.hours(), 0u);
  EXPECT_THROW(m.hourlyHitRatio(0), std::logic_error);
  EXPECT_THROW(m.hourlyTrafficPages(0), std::logic_error);
}

TEST(MetricsTest, FailureFieldsFoldIn) {
  SimMetrics m(1, 0);
  RequestDelivery stale = req(0, 1.0, false, true, 0, 55.0);
  stale.servedStale = true;
  stale.retries = 1;
  RequestDelivery failover = req(0, 2.0, false, false, 80, 205.0);
  failover.failover = true;
  RequestDelivery down = req(0, 3.0, false, false, 0, 999.0);
  down.unavailable = true;
  down.retries = 2;
  m.recordRequest(stale);
  m.recordRequest(failover);
  m.recordRequest(down);
  PushDelivery lost = push(4.0, 1, 10);
  lost.pagesLost = 2;
  lost.bytesLost = 20;
  m.recordPush(lost);
  EXPECT_EQ(m.staleServes(), 1u);
  EXPECT_EQ(m.failovers(), 1u);
  EXPECT_EQ(m.unavailableRequests(), 1u);
  EXPECT_EQ(m.totalRetries(), 3u);
  // Only the failover fetched fresh bytes; the unavailable request has
  // no response time.
  EXPECT_EQ(m.traffic().fetchPages, 1u);
  EXPECT_EQ(m.traffic().fetchBytes, 80u);
  EXPECT_DOUBLE_EQ(m.meanResponseTime(), 130.0);
  EXPECT_EQ(m.traffic().lostPushPages, 2u);
  EXPECT_EQ(m.traffic().lostPushBytes, 20u);
}

TEST(MetricsTest, ProxyRangeChecked) {
  SimMetrics m(1, 0);
  EXPECT_THROW(m.recordRequest(req(4, 0.0, true, false, 0)),
               std::out_of_range);
}

}  // namespace
}  // namespace pscd
