#include "pscd/workload/publishing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

namespace pscd {
namespace {

PublishingParams smallParams() {
  PublishingParams p;
  p.numPages = 500;
  p.numUpdatedPages = 200;
  return p;
}

TEST(PublishingTest, PageAndEventCounts) {
  Rng rng(1);
  const auto s = generatePublishing(smallParams(), 1.5, 0.85, rng);
  EXPECT_EQ(s.pages.size(), 500u);
  std::size_t expectedEvents = 0;
  for (const auto& info : s.pages) expectedEvents += info.numVersions;
  EXPECT_EQ(s.events.size(), expectedEvents);
}

TEST(PublishingTest, UpdatedPageCountMatches) {
  Rng rng(2);
  const auto s = generatePublishing(smallParams(), 1.5, 0.85, rng);
  const auto updated = std::count_if(
      s.pages.begin(), s.pages.end(),
      [](const PageInfo& p) { return p.modificationInterval > 0; });
  EXPECT_EQ(updated, 200);
}

TEST(PublishingTest, EventsSortedByTimeWithinHorizon) {
  Rng rng(3);
  const auto s = generatePublishing(smallParams(), 1.5, 0.85, rng);
  SimTime prev = 0.0;
  for (const auto& e : s.events) {
    EXPECT_GE(e.time, prev);
    EXPECT_LE(e.time, smallParams().horizon);
    prev = e.time;
  }
}

TEST(PublishingTest, VersionsSequentialPerPage) {
  Rng rng(4);
  const auto s = generatePublishing(smallParams(), 1.5, 0.85, rng);
  std::vector<Version> next(s.pages.size(), 0);
  for (const auto& e : s.events) {
    EXPECT_EQ(e.version, next[e.page]++);
  }
  for (PageId p = 0; p < s.pages.size(); ++p) {
    EXPECT_EQ(next[p], s.pages[p].numVersions);
  }
}

TEST(PublishingTest, VersionCapRespected) {
  Rng rng(5);
  PublishingParams p = smallParams();
  p.maxVersionsPerPage = 7;
  const auto s = generatePublishing(p, 1.5, 0.85, rng);
  for (const auto& info : s.pages) EXPECT_LE(info.numVersions, 7u);
}

TEST(PublishingTest, SizesWithinClamps) {
  Rng rng(6);
  const auto s = generatePublishing(smallParams(), 1.5, 0.85, rng);
  for (const auto& info : s.pages) {
    EXPECT_GE(info.size, smallParams().minPageSize);
    EXPECT_LE(info.size, smallParams().maxPageSize);
  }
}

TEST(PublishingTest, IntervalDistributionStepwise) {
  Rng rng(7);
  PublishingParams p;
  p.numPages = 4000;
  p.numUpdatedPages = 4000;
  const auto s = generatePublishing(p, 1.5, 0.0, rng);
  int shortIv = 0, longIv = 0;
  for (const auto& info : s.pages) {
    ASSERT_GT(info.modificationInterval, 0.0);
    if (info.modificationInterval < kHour) ++shortIv;
    if (info.modificationInterval > kDay) ++longIv;
  }
  // 5% below an hour, 5% above a day (section 4.1).
  EXPECT_NEAR(shortIv / 4000.0, 0.05, 0.015);
  EXPECT_NEAR(longIv / 4000.0, 0.05, 0.015);
}

TEST(PublishingTest, RanksAreAPermutation) {
  Rng rng(8);
  const auto s = generatePublishing(smallParams(), 1.5, 0.85, rng);
  std::vector<bool> seen(s.pages.size() + 1, false);
  for (const auto& info : s.pages) {
    ASSERT_GE(info.popularityRank, 1u);
    ASSERT_LE(info.popularityRank, s.pages.size());
    ASSERT_FALSE(seen[info.popularityRank]);
    seen[info.popularityRank] = true;
  }
}

TEST(PublishingTest, TopRanksBiasedTowardUpdatedPages) {
  Rng rng(9);
  const auto s = generatePublishing(smallParams(), 1.5, 0.9, rng);
  int updatedInTop = 0;
  for (const auto& info : s.pages) {
    if (info.popularityRank <= 200 && info.modificationInterval > 0) {
      ++updatedInTop;
    }
  }
  // With bias 0.9 the top 200 ranks are overwhelmingly updated pages;
  // an unbiased deal would give ~80.
  EXPECT_GT(updatedInTop, 150);
}

TEST(PublishingTest, ShortestIntervalsGoToMostPopularUpdatedPages) {
  Rng rng(10);
  const auto s = generatePublishing(smallParams(), 1.5, 1.0, rng);
  // Assortative assignment: among updated pages, intervals increase
  // with rank.
  std::vector<std::pair<std::uint32_t, double>> byRank;
  for (const auto& info : s.pages) {
    if (info.modificationInterval > 0) {
      byRank.emplace_back(info.popularityRank, info.modificationInterval);
    }
  }
  std::sort(byRank.begin(), byRank.end());
  for (std::size_t i = 1; i < byRank.size(); ++i) {
    EXPECT_LE(byRank[i - 1].second, byRank[i].second);
  }
}

TEST(PublishingTest, ZeroBiasStillAssignsAllIntervals) {
  Rng rng(11);
  const auto s = generatePublishing(smallParams(), 1.5, 0.0, rng);
  const auto updated = std::count_if(
      s.pages.begin(), s.pages.end(),
      [](const PageInfo& p) { return p.modificationInterval > 0; });
  EXPECT_EQ(updated, 200);
}

TEST(PublishingTest, DeterministicPerSeed) {
  Rng a(42), b(42);
  const auto s1 = generatePublishing(smallParams(), 1.5, 0.85, a);
  const auto s2 = generatePublishing(smallParams(), 1.5, 0.85, b);
  ASSERT_EQ(s1.events.size(), s2.events.size());
  for (std::size_t i = 0; i < s1.events.size(); ++i) {
    EXPECT_EQ(s1.events[i].page, s2.events[i].page);
    EXPECT_DOUBLE_EQ(s1.events[i].time, s2.events[i].time);
  }
}

TEST(PublishingTest, RejectsBadParams) {
  Rng rng(1);
  PublishingParams p;
  p.numPages = 0;
  EXPECT_THROW(generatePublishing(p, 1.5, 0.85, rng), std::invalid_argument);
  p = smallParams();
  p.numUpdatedPages = p.numPages + 1;
  EXPECT_THROW(generatePublishing(p, 1.5, 0.85, rng), std::invalid_argument);
  p = smallParams();
  p.maxVersionsPerPage = 0;
  EXPECT_THROW(generatePublishing(p, 1.5, 0.85, rng), std::invalid_argument);
}

TEST(PublishingTest, RejectsBadHorizonByName) {
  // A non-finite horizon used to get as far as the request generator and
  // fail there as "DiscreteSampler: empty weights".
  for (const SimTime horizon :
       {std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(), 0.0, -kDay, kMaxHorizon}) {
    Rng rng(1);
    PublishingParams p = smallParams();
    p.horizon = horizon;
    try {
      generatePublishing(p, 1.5, 0.85, rng);
      ADD_FAILURE() << "horizon " << horizon << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("horizon"), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace pscd
