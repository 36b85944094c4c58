// Tests of the subscription-aware members of the GD* family: SG1 (f =
// s + a, eq. 3), SG2 (f = max(s - a, 0), eq. 4) and SR (eq. 5, no
// inflation), including the value-based admission of section 3.3 and
// persistent access counting.
#include "pscd/cache/gds_family.h"

#include <gtest/gtest.h>

#include "pscd/cache/strategy_factory.h"

namespace pscd {
namespace {

PushContext push(PageId page, Bytes size, std::uint32_t subs,
                 Version version = 0, SimTime now = 0.0) {
  return PushContext{page, version, size, subs, now};
}

RequestContext req(PageId page, Bytes size, Version latest = 0,
                   std::uint32_t subs = 0, SimTime now = 0.0) {
  return RequestContext{page, latest, size, subs, now};
}

TEST(SgFamilyTest, AllPushCapable) {
  EXPECT_TRUE(GdsFamilyStrategy(100, 1.0, sg1Config(1.0)).pushCapable());
  EXPECT_TRUE(GdsFamilyStrategy(100, 1.0, sg2Config(1.0)).pushCapable());
  EXPECT_TRUE(GdsFamilyStrategy(100, 1.0, srConfig()).pushCapable());
}

TEST(SgFamilyTest, PushStoresMatchedPage) {
  GdsFamilyStrategy s(100, 1.0, sg2Config(1.0));
  EXPECT_TRUE(s.onPush(push(1, 50, 10)).stored);
  EXPECT_TRUE(s.cache().contains(1));
  EXPECT_EQ(s.cache().find(1)->subCount, 10u);
}

TEST(SgFamilyTest, PushRefusedWhenCandidatesTooSmall) {
  GdsFamilyStrategy s(100, 1.0, sg2Config(1.0));
  EXPECT_TRUE(s.onPush(push(1, 60, 100)).stored);  // V = 100/60
  EXPECT_TRUE(s.onPush(push(2, 40, 100)).stored);  // V = 100/40
  // Page 3 (s=1, V=1/50) is below both residents: refused.
  EXPECT_FALSE(s.onPush(push(3, 50, 1)).stored);
  EXPECT_TRUE(s.cache().contains(1));
  EXPECT_TRUE(s.cache().contains(2));
}

TEST(SgFamilyTest, PushEvictsStrictlyLowerValuedPages) {
  GdsFamilyStrategy s(100, 1.0, sg2Config(1.0));
  s.onPush(push(1, 60, 1));    // V = 1/60
  s.onPush(push(2, 40, 2));    // V = 2/40
  EXPECT_TRUE(s.onPush(push(3, 80, 50)).stored);  // V = 50/80 beats both
  EXPECT_FALSE(s.cache().contains(1));
  EXPECT_TRUE(s.cache().contains(3));
}

TEST(SgFamilyTest, MissWithLowValueNotCached) {
  GdsFamilyStrategy s(100, 1.0, sg2Config(1.0));
  s.onPush(push(1, 60, 100));
  s.onPush(push(2, 40, 100));
  // Unsubscribed page: f = max(0-1, 0) = 0; cannot displace anything.
  const auto out = s.onRequest(req(3, 30, 0, 0));
  EXPECT_FALSE(out.hit);
  EXPECT_FALSE(out.storedAfterMiss);
}

TEST(Sg1Test, FrequencyIsSubPlusAccess) {
  GdsFamilyStrategy s(1000, 1.0, sg1Config(1.0));
  s.onPush(push(1, 100, 5));
  EXPECT_DOUBLE_EQ(s.cache().find(1)->value, 0.05);  // (5+0)/100
  s.onRequest(req(1, 100, 0, 5));
  EXPECT_DOUBLE_EQ(s.cache().find(1)->value, 0.06);  // (5+1)/100
}

TEST(Sg2Test, FrequencyIsSubMinusAccess) {
  GdsFamilyStrategy s(1000, 1.0, sg2Config(1.0));
  s.onPush(push(1, 100, 3));
  EXPECT_DOUBLE_EQ(s.cache().find(1)->value, 0.03);  // (3-0)/100
  s.onRequest(req(1, 100, 0, 3));
  EXPECT_DOUBLE_EQ(s.cache().find(1)->value, 0.02);  // (3-1)/100
}

TEST(Sg2Test, FrequencyClampedAtZero) {
  GdsFamilyStrategy s(1000, 1.0, sg2Config(1.0));
  s.onPush(push(1, 100, 1));
  s.onRequest(req(1, 100, 0, 1));
  s.onRequest(req(1, 100, 0, 1));  // a = 2 > s = 1
  EXPECT_DOUBLE_EQ(s.cache().find(1)->value, 0.0);  // L still 0
}

TEST(Sg2Test, PersistentAccessCountsSurviveEviction) {
  GdsFamilyStrategy s(100, 1.0, sg2Config(1.0));
  s.onPush(push(1, 100, 10));
  for (int i = 0; i < 4; ++i) s.onRequest(req(1, 100, 0, 10));
  // Force page 1 out, then push it back: a must still be 4 (the proxy
  // remembers its users' accesses), so f = 10 - 4.
  s.onPush(push(2, 100, 1000));
  EXPECT_FALSE(s.cache().contains(1));
  s.onPush(push(2, 1, 1000));  // shrink page 2 so page 1 fits again
  EXPECT_TRUE(s.onPush(push(1, 99, 10)).stored);
  // f = s - a = 10 - 4 thanks to the persistent counter; the stored
  // value also carries the inflation L accumulated by the eviction.
  EXPECT_DOUBLE_EQ(s.cache().find(1)->value, s.inflation() + 6.0 / 99.0);
  EXPECT_GT(s.inflation(), 0.0);
}

TEST(Sg2Test, DrainedPageBecomesEvictionCandidate) {
  GdsFamilyStrategy s(100, 1.0, sg2Config(1.0));
  s.onPush(push(1, 60, 1));
  s.onRequest(req(1, 60, 0, 1));  // drained: f -> 0
  // A new push with any positive value can now displace page 1.
  EXPECT_TRUE(s.onPush(push(2, 80, 1)).stored);
  EXPECT_FALSE(s.cache().contains(1));
}

TEST(SrTest, NoInflation) {
  GdsFamilyStrategy s(100, 1.0, srConfig());
  s.onRequest(req(1, 100, 0, 0));  // f=0 -> V=0, always-admit? no:
  // SR uses value-based admission; V=0 admits only into free space.
  EXPECT_TRUE(s.cache().contains(1));  // cache was empty -> free space
  s.onPush(push(2, 100, 50));          // evicts page 1 (V=0 < 0.5)
  EXPECT_FALSE(s.cache().contains(1));
  // L would now be 0 + ... but SR has no inflation: values stay pure.
  EXPECT_DOUBLE_EQ(s.cache().find(2)->value, 0.5);
}

TEST(SrTest, VersionPushRefreshesInPlace) {
  GdsFamilyStrategy s(1000, 1.0, srConfig());
  s.onPush(push(1, 100, 5, 0));
  s.onPush(push(1, 120, 5, 3));
  EXPECT_EQ(s.cache().find(1)->version, 3u);
  EXPECT_EQ(s.cache().find(1)->size, 120u);
  EXPECT_EQ(s.usedBytes(), 120u);
}

TEST(SrTest, StaleCopyRefetchedOnRequest) {
  GdsFamilyStrategy s(1000, 1.0, srConfig());
  s.onPush(push(1, 100, 5, 0));
  const auto out = s.onRequest(req(1, 100, 2, 5));
  EXPECT_FALSE(out.hit);
  EXPECT_TRUE(out.stale);
  EXPECT_EQ(s.cache().find(1)->version, 2u);
}

TEST(SgFamilyTest, NamesMatchPaper) {
  EXPECT_EQ(strategyName(StrategyKind::kSG1), "SG1");
  EXPECT_EQ(strategyName(StrategyKind::kSG2), "SG2");
  EXPECT_EQ(strategyName(StrategyKind::kSR), "SR");
  EXPECT_EQ(strategyName(StrategyKind::kGDStar), "GD*");
}

TEST(SgFamilyTest, ChurnKeepsInvariants) {
  GdsFamilyStrategy s(300, 2.0, sg2Config(2.0));
  for (int i = 0; i < 300; ++i) {
    const PageId p = i % 13;
    if (i % 3 == 0) {
      s.onPush(push(p, 20 + (i % 5) * 30, (i % 7) + 1, i % 4));
    } else {
      s.onRequest(req(p, 20 + (i % 5) * 30, i % 4, (i % 7) + 1));
    }
    s.checkInvariants();
  }
}

}  // namespace
}  // namespace pscd
