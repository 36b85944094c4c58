#include "pscd/core/engine.h"

#include <gtest/gtest.h>

namespace pscd {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : rng_(5), network_(NetworkParams{.numProxies = 4}, rng_) {}

  ContentDistributionEngine makeEngine(
      StrategyKind kind, PushScheme scheme = PushScheme::kAlwaysPushing,
      Bytes capacity = 1000) {
    EngineConfig c;
    c.strategy = kind;
    c.beta = 1.0;
    c.pushScheme = scheme;
    c.proxyCapacities.assign(4, capacity);
    return ContentDistributionEngine(network_, std::move(c));
  }

  static PublishEvent ev(PageId page, Bytes size, Version version = 0,
                         SimTime t = 0.0) {
    return PublishEvent{t, page, version, size};
  }

  Rng rng_;
  Network network_;
};

TEST_F(EngineTest, PublishNotifiesMatchedProxies) {
  auto e = makeEngine(StrategyKind::kSG2);
  e.broker().subscribeAggregated(0, 1, 2);
  e.broker().subscribeAggregated(3, 1, 5);
  const auto s = e.publish(ev(1, 100));
  EXPECT_EQ(s.proxiesNotified, 2u);
  EXPECT_EQ(s.proxiesStored, 2u);
  EXPECT_EQ(s.pages, 2u);
  EXPECT_EQ(s.bytes, 200u);
}

TEST_F(EngineTest, NoPushTrafficForAccessOnlyStrategy) {
  auto e = makeEngine(StrategyKind::kGDStar);
  e.broker().subscribeAggregated(0, 1, 2);
  const auto s = e.publish(ev(1, 100));
  EXPECT_EQ(s.proxiesNotified, 1u);
  EXPECT_EQ(s.proxiesStored, 0u);
  EXPECT_EQ(s.pages, 0u);
  EXPECT_EQ(s.bytes, 0u);
}

TEST_F(EngineTest, WhenNecessaryOnlyTransfersStoredPages) {
  // SUB with a tiny cache: the second push is refused, so under
  // Pushing-When-Necessary only one page travels.
  auto e = makeEngine(StrategyKind::kSUB, PushScheme::kPushingWhenNecessary,
                      120);
  e.broker().subscribeAggregated(0, 1, 50);
  e.broker().subscribeAggregated(0, 2, 1);
  EXPECT_EQ(e.publish(ev(1, 100)).pages, 1u);
  const auto s2 = e.publish(ev(2, 100));
  EXPECT_EQ(s2.proxiesNotified, 1u);
  EXPECT_EQ(s2.proxiesStored, 0u);
  EXPECT_EQ(s2.pages, 0u);
}

TEST_F(EngineTest, AlwaysPushingTransfersRegardless) {
  auto e = makeEngine(StrategyKind::kSUB, PushScheme::kAlwaysPushing, 120);
  e.broker().subscribeAggregated(0, 1, 50);
  e.broker().subscribeAggregated(0, 2, 1);
  e.publish(ev(1, 100));
  EXPECT_EQ(e.publish(ev(2, 100)).pages, 1u);
}

TEST_F(EngineTest, RequestHitAfterPush) {
  auto e = makeEngine(StrategyKind::kSG2);
  e.broker().subscribeAggregated(1, 7, 3);
  e.publish(ev(7, 100));
  const auto r = e.request(1, 7, 1.0);
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(r.bytesTransferred, 0u);
}

TEST_F(EngineTest, RequestMissFetches) {
  auto e = makeEngine(StrategyKind::kGDStar);
  e.publish(ev(7, 100));
  const auto r = e.request(2, 7, 1.0);
  EXPECT_FALSE(r.hit);
  EXPECT_EQ(r.bytesTransferred, 100u);
  EXPECT_TRUE(e.request(2, 7, 2.0).hit);  // now cached
}

TEST_F(EngineTest, VersionBumpInvalidatesUnpushedCaches) {
  auto e = makeEngine(StrategyKind::kGDStar);
  e.publish(ev(7, 100, 0));
  e.request(2, 7, 1.0);
  e.publish(ev(7, 100, 1, 2.0));
  const auto r = e.request(2, 7, 3.0);
  EXPECT_FALSE(r.hit);
  EXPECT_TRUE(r.stale);
}

TEST_F(EngineTest, PushKeepsSubscribedProxiesFresh) {
  auto e = makeEngine(StrategyKind::kSG2);
  e.broker().subscribeAggregated(2, 7, 4);
  e.publish(ev(7, 100, 0));
  e.request(2, 7, 1.0);
  e.publish(ev(7, 100, 1, 2.0));  // re-pushed
  EXPECT_TRUE(e.request(2, 7, 3.0).hit);
}

TEST_F(EngineTest, LatestVersionAndSizeTracked) {
  auto e = makeEngine(StrategyKind::kGDStar);
  e.publish(ev(3, 50, 0));
  e.publish(ev(3, 70, 1));
  EXPECT_EQ(e.latestVersion(3), 1u);
  EXPECT_EQ(e.pageSize(3), 70u);
}

TEST_F(EngineTest, UnknownPageThrows) {
  auto e = makeEngine(StrategyKind::kGDStar);
  EXPECT_THROW(e.request(0, 99, 0.0), std::out_of_range);
  EXPECT_THROW(e.latestVersion(99), std::out_of_range);
}

TEST_F(EngineTest, BadConfigRejected) {
  EngineConfig c;
  c.proxyCapacities.assign(2, 100);  // network has 4 proxies
  EXPECT_THROW(ContentDistributionEngine(network_, std::move(c)),
               std::invalid_argument);
}

TEST_F(EngineTest, RequestRangeChecked) {
  auto e = makeEngine(StrategyKind::kGDStar);
  e.publish(ev(1, 10));
  EXPECT_THROW(e.request(99, 1, 0.0), std::out_of_range);
}

TEST_F(EngineTest, PredicateSubscriptionsDrivePushes) {
  auto e = makeEngine(StrategyKind::kSG2);
  Subscription s;
  s.proxy = 2;
  s.conjuncts = {{Predicate::Kind::kCategoryEq, 9}};
  e.broker().subscribe(s);
  ContentAttributes attrs;
  attrs.page = 5;
  attrs.category = 9;
  const auto out = e.publish(ev(5, 80), attrs);
  EXPECT_EQ(out.proxiesNotified, 1u);
  EXPECT_TRUE(e.request(2, 5, 1.0).hit);
}

TEST_F(EngineTest, ZeroSizePublishRejected) {
  auto e = makeEngine(StrategyKind::kGDStar);
  EXPECT_THROW(e.publish(ev(1, 0)), std::invalid_argument);
}

TEST_F(EngineTest, CheckInvariantsCoversAllProxies) {
  auto e = makeEngine(StrategyKind::kDCLAP);
  e.broker().subscribeAggregated(0, 1, 2);
  e.publish(ev(1, 100));
  e.request(0, 1, 1.0);
  EXPECT_NO_THROW(e.checkInvariants());
}

}  // namespace
}  // namespace pscd
