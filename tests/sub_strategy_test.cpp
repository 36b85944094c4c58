// SUB (section 3.2): push-time-only placement, V = f_S c / s, never
// caches on a miss.
#include "pscd/cache/sub_strategy.h"

#include <gtest/gtest.h>

namespace pscd {
namespace {

PushContext push(PageId page, Bytes size, std::uint32_t subs,
                 Version version = 0) {
  return PushContext{page, version, size, subs, 0.0};
}

RequestContext req(PageId page, Bytes size, Version latest = 0) {
  return RequestContext{page, latest, size, 0, 0.0};
}

TEST(SubStrategyTest, IsPushCapable) {
  SubStrategy s(100, 1.0);
  EXPECT_TRUE(s.pushCapable());
}

TEST(SubStrategyTest, PushStoresAndRequestHits) {
  SubStrategy s(100, 1.0);
  EXPECT_TRUE(s.onPush(push(1, 50, 3)).stored);
  const auto out = s.onRequest(req(1, 50));
  EXPECT_TRUE(out.hit);
}

TEST(SubStrategyTest, NeverCachesOnMiss) {
  SubStrategy s(100, 1.0);
  const auto out = s.onRequest(req(9, 10));
  EXPECT_FALSE(out.hit);
  EXPECT_FALSE(out.storedAfterMiss);
  EXPECT_EQ(s.usedBytes(), 0u);
  // Even repeated misses never populate the cache.
  s.onRequest(req(9, 10));
  EXPECT_FALSE(s.onRequest(req(9, 10)).hit);
}

TEST(SubStrategyTest, ValueOrderingBySubscriptionDensity) {
  SubStrategy s(100, 1.0);
  s.onPush(push(1, 60, 6));   // V = 0.1
  s.onPush(push(2, 40, 20));  // V = 0.5
  // s=30, size=80 -> V = 0.375: only page 1 (0.1) is a candidate;
  // 60 freed < 80 needed -> refused.
  EXPECT_FALSE(s.onPush(push(3, 80, 30)).stored);
  // s=50, size=80 -> V = 0.625 beats both -> stored.
  EXPECT_TRUE(s.onPush(push(3, 80, 50)).stored);
  EXPECT_FALSE(s.cache().contains(1));
  EXPECT_FALSE(s.cache().contains(2));
}

TEST(SubStrategyTest, RefusalLeavesCacheUntouched) {
  SubStrategy s(100, 1.0);
  s.onPush(push(1, 50, 10));
  s.onPush(push(2, 50, 10));
  EXPECT_FALSE(s.onPush(push(3, 60, 1)).stored);
  EXPECT_TRUE(s.cache().contains(1));
  EXPECT_TRUE(s.cache().contains(2));
  s.checkInvariants();
}

TEST(SubStrategyTest, VersionPushRefreshesContent) {
  SubStrategy s(100, 1.0);
  s.onPush(push(1, 50, 3, 0));
  s.onPush(push(1, 70, 3, 2));
  EXPECT_EQ(s.cache().find(1)->version, 2u);
  EXPECT_EQ(s.usedBytes(), 70u);
  EXPECT_TRUE(s.onRequest(req(1, 70, 2)).hit);
}

TEST(SubStrategyTest, StaleCopyIsMissButStays) {
  SubStrategy s(100, 1.0);
  s.onPush(push(1, 50, 3, 0));
  const auto out = s.onRequest(req(1, 50, 5));
  EXPECT_FALSE(out.hit);
  EXPECT_TRUE(out.stale);
  // SUB does not react to accesses: the stale copy waits for the next
  // push to refresh it.
  EXPECT_TRUE(s.cache().contains(1));
  EXPECT_EQ(s.cache().find(1)->version, 0u);
}

TEST(SubStrategyTest, HitDoesNotChangeValue) {
  SubStrategy s(100, 1.0);
  s.onPush(push(1, 50, 4));
  const double v = s.cache().find(1)->value;
  s.onRequest(req(1, 50));
  s.onRequest(req(1, 50));
  EXPECT_DOUBLE_EQ(s.cache().find(1)->value, v);
}

TEST(SubStrategyTest, ZeroSubscriptionPushHasZeroValue) {
  SubStrategy s(100, 1.0);
  s.onPush(push(1, 50, 5));
  s.onPush(push(2, 50, 5));
  // A page with no subscriptions cannot displace anything.
  EXPECT_FALSE(s.onPush(push(3, 10, 0)).stored);
}

TEST(SubStrategyTest, RejectsBadFetchCost) {
  EXPECT_THROW(SubStrategy(100, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace pscd
