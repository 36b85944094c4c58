// Dual-Caches (section 3.3): fixed partition (DC-FP), adaptive partition
// (DC-AP, "Placing in DC-AP" claim algorithm) and the bounded variant
// DC-LAP.
#include "pscd/cache/dual_cache.h"

#include <gtest/gtest.h>

#include "pscd/cache/strategy_factory.h"
#include "pscd/util/rng.h"

namespace pscd {
namespace {

PushContext push(PageId page, Bytes size, std::uint32_t subs,
                 Version version = 0, SimTime now = 0.0) {
  return PushContext{page, version, size, subs, now};
}

RequestContext req(PageId page, Bytes size, Version latest = 0,
                   SimTime now = 0.0, std::uint32_t subs = 0) {
  return RequestContext{page, latest, size, subs, now};
}

DualCacheConfig fp() {
  DualCacheConfig c;
  c.mode = PartitionMode::kFixed;
  return c;
}

DualCacheConfig ap() {
  DualCacheConfig c;
  c.mode = PartitionMode::kAdaptive;
  c.minPcFraction = 0.0;
  c.maxPcFraction = 1.0;
  return c;
}

DualCacheConfig lap(double lo = 0.25, double hi = 0.75) {
  DualCacheConfig c;
  c.mode = PartitionMode::kLimitedAdaptive;
  c.minPcFraction = lo;
  c.maxPcFraction = hi;
  return c;
}

TEST(DualCacheTest, InitialPartitionSplitsCapacity) {
  DualCacheStrategy s(100, 1.0, fp());
  EXPECT_EQ(s.pushCache().capacity(), 50u);
  EXPECT_EQ(s.accessCache().capacity(), 50u);
  EXPECT_EQ(s.capacityBytes(), 100u);
  EXPECT_TRUE(s.pushCapable());
}

TEST(DualCacheTest, PushGoesToPushCache) {
  DualCacheStrategy s(100, 1.0, fp());
  EXPECT_TRUE(s.onPush(push(1, 40, 5)).stored);
  EXPECT_TRUE(s.pushCache().contains(1));
  EXPECT_FALSE(s.accessCache().contains(1));
}

TEST(DualCacheTest, MissGoesToAccessCache) {
  DualCacheStrategy s(100, 1.0, fp());
  const auto out = s.onRequest(req(7, 30));
  EXPECT_TRUE(out.storedAfterMiss);
  EXPECT_TRUE(s.accessCache().contains(7));
  EXPECT_FALSE(s.pushCache().contains(7));
}

TEST(DualCacheFpTest, FirstAccessMovesPageToAccessCache) {
  DualCacheStrategy s(100, 1.0, fp());
  s.onPush(push(1, 40, 5));
  const auto out = s.onRequest(req(1, 40));
  EXPECT_TRUE(out.hit);
  EXPECT_FALSE(s.pushCache().contains(1));
  EXPECT_TRUE(s.accessCache().contains(1));
  // The fixed partition never moves.
  EXPECT_EQ(s.pushCache().capacity(), 50u);
  EXPECT_EQ(s.accessCache().capacity(), 50u);
  s.checkInvariants();
}

TEST(DualCacheFpTest, MoveMayEvictInAccessCache) {
  DualCacheStrategy s(100, 1.0, fp());
  s.onRequest(req(2, 40));  // AC now holds 40/50
  s.onPush(push(1, 30, 5));
  EXPECT_TRUE(s.onRequest(req(1, 30)).hit);  // move needs AC eviction
  EXPECT_TRUE(s.accessCache().contains(1));
  EXPECT_FALSE(s.accessCache().contains(2));
  s.checkInvariants();
}

TEST(DualCacheFpTest, PushRefusedWhenPcFullOfBetterPages) {
  DualCacheStrategy s(100, 1.0, fp());
  s.onPush(push(1, 25, 100));
  s.onPush(push(2, 25, 100));
  EXPECT_FALSE(s.onPush(push(3, 30, 1)).stored);
  // FP never claims AC space.
  EXPECT_EQ(s.pushCache().capacity(), 50u);
}

TEST(DualCacheApTest, AccessRelabelsInsteadOfMoving) {
  DualCacheStrategy s(100, 1.0, ap());
  s.onPush(push(1, 40, 5));
  EXPECT_TRUE(s.onRequest(req(1, 40)).hit);
  // Budget shifted with the page: PC shrank, AC grew.
  EXPECT_EQ(s.pushCache().capacity(), 10u);
  EXPECT_EQ(s.accessCache().capacity(), 90u);
  EXPECT_TRUE(s.accessCache().contains(1));
  s.checkInvariants();
}

TEST(DualCacheApTest, FailedPushClaimsIdleAccessPages) {
  DualCacheStrategy s(100, 1.0, ap());
  // Fill AC with two pages and trigger an AC replacement so one page
  // becomes "not referenced since the last replacement in AC".
  s.onRequest(req(1, 30, 0, 1.0));
  s.onRequest(req(2, 20, 0, 2.0));
  s.onRequest(req(3, 20, 0, 3.0));  // AC replacement evicts page 1
  // Pages 2 (lastAccess 2.0) and 3 (3.0): replacement happened at 3.0,
  // so both qualify as idle (lastAccess <= lastAcReplacement).
  ASSERT_GT(s.lastAcReplacement(), 0.0);
  // Fill PC with a high-value page so SUB cannot place the next push.
  s.onPush(push(10, 50, 100, 0, 4.0));
  EXPECT_TRUE(s.onPush(push(11, 40, 1, 0, 5.0)).stored);
  // The claim took AC storage: PC grew beyond its initial 50 bytes.
  EXPECT_GT(s.pushCache().capacity(), 50u);
  EXPECT_TRUE(s.pushCache().contains(11));
  s.checkInvariants();
}

TEST(DualCacheApTest, ClaimRefusedWithoutIdlePages) {
  DualCacheStrategy s(100, 1.0, ap());
  // AC pages accessed after the last replacement are protected.
  s.onRequest(req(1, 40, 0, 1.0));
  s.onPush(push(10, 50, 100, 0, 2.0));
  // No AC replacement has happened (lastAcReplacement = -1), so nothing
  // is claimable and the low-value push fails.
  EXPECT_FALSE(s.onPush(push(11, 40, 1, 0, 3.0)).stored);
  EXPECT_TRUE(s.accessCache().contains(1));
}

TEST(DualCacheLapTest, RelabelBoundedBelow) {
  DualCacheStrategy s(100, 1.0, lap(0.4, 0.6));
  s.onPush(push(1, 30, 5));
  // Relabeling would drop PC to 20 < 40 bytes: falls back to the FP
  // move (budgets unchanged).
  EXPECT_TRUE(s.onRequest(req(1, 30)).hit);
  EXPECT_EQ(s.pushCache().capacity(), 50u);
  EXPECT_TRUE(s.accessCache().contains(1));
  s.checkInvariants();
}

TEST(DualCacheLapTest, SmallRelabelAllowedWithinBounds) {
  DualCacheStrategy s(1000, 1.0, lap(0.25, 0.75));
  s.onPush(push(1, 100, 5));
  EXPECT_TRUE(s.onRequest(req(1, 100)).hit);
  // 500 - 100 = 400 >= 250: relabel allowed.
  EXPECT_EQ(s.pushCache().capacity(), 400u);
  s.checkInvariants();
}

TEST(DualCacheLapTest, ClaimBoundedAbove) {
  DualCacheStrategy s(100, 1.0, lap(0.25, 0.55));
  s.onRequest(req(1, 30, 0, 1.0));
  s.onRequest(req(2, 25, 0, 2.0));  // AC replacement at t=2 evicts page 1
  ASSERT_GT(s.lastAcReplacement(), 0.0);
  s.onPush(push(10, 50, 100, 0, 3.0));
  // Claiming page 2 (25 bytes) would raise PC to 75 > 55% of 100: the
  // claim is refused and the push fails.
  EXPECT_FALSE(s.onPush(push(11, 40, 1, 0, 4.0)).stored);
  EXPECT_EQ(s.pushCache().capacity(), 50u);
  s.checkInvariants();
}

TEST(DualCacheTest, StalePushedPageRefetchedIntoAccessCache) {
  DualCacheStrategy s(200, 1.0, fp());
  s.onPush(push(1, 40, 5, 0));
  const auto out = s.onRequest(req(1, 40, 3));
  EXPECT_FALSE(out.hit);
  EXPECT_TRUE(out.stale);
  EXPECT_TRUE(out.storedAfterMiss);
  EXPECT_TRUE(s.accessCache().contains(1));
  EXPECT_EQ(s.accessCache().find(1)->version, 3u);
}

TEST(DualCacheTest, VersionPushRefreshesAcResident) {
  DualCacheStrategy s(200, 1.0, fp());
  s.onRequest(req(1, 40, 0));          // cached in AC
  s.onPush(push(1, 60, 5, 2));         // new version arrives
  EXPECT_TRUE(s.accessCache().contains(1));
  EXPECT_EQ(s.accessCache().find(1)->version, 2u);
  EXPECT_TRUE(s.onRequest(req(1, 60, 2)).hit);  // no stale miss
}

TEST(DualCacheTest, AcHitUpdatesGdValue) {
  DualCacheStrategy s(200, 1.0, fp());
  s.onRequest(req(1, 50));
  const double v1 = s.accessCache().find(1)->value;
  s.onRequest(req(1, 50));
  EXPECT_GT(s.accessCache().find(1)->value, v1);
}

TEST(DualCacheTest, PageNeverInBothCaches) {
  DualCacheStrategy s(300, 1.0, ap());
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const PageId p = static_cast<PageId>(rng.uniformInt(std::uint64_t{9}));
    const Bytes size = 20 + 10 * rng.uniformInt(std::uint64_t{5});
    if (rng.bernoulli(0.5)) {
      s.onPush(push(p, size, 1 + static_cast<std::uint32_t>(
                                     rng.uniformInt(std::uint64_t{8})),
                    i % 3, i));
    } else {
      s.onRequest(req(p, size, i % 3, i));
    }
    s.checkInvariants();  // includes the both-caches check
  }
}

TEST(DualCacheTest, ConfigValidation) {
  DualCacheConfig bad = lap();
  bad.initialPcFraction = 0.9;  // outside [0.25, 0.75]
  EXPECT_THROW(DualCacheStrategy(100, 1.0, bad), std::invalid_argument);
  DualCacheConfig swapped = lap(0.8, 0.2);
  EXPECT_THROW(DualCacheStrategy(100, 1.0, swapped), std::invalid_argument);
  EXPECT_THROW(DualCacheStrategy(100, 0.0, fp()), std::invalid_argument);
}

TEST(DualCacheTest, NamesPerMode) {
  EXPECT_EQ(strategyName(StrategyKind::kDCFP), "DC-FP");
  EXPECT_EQ(strategyName(StrategyKind::kDCAP), "DC-AP");
  EXPECT_EQ(strategyName(StrategyKind::kDCLAP), "DC-LAP");
}

}  // namespace
}  // namespace pscd
