#include "pscd/workload/requests.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <tuple>

#include "pscd/workload/publishing.h"

namespace pscd {
namespace {

struct Setup {
  std::vector<PageInfo> pages;
  RequestParams params;
  SimTime horizon = 7 * kDay;
};

Setup makeSetup(std::uint64_t seed, double alpha = 1.5) {
  Setup s;
  PublishingParams pp;
  pp.numPages = 800;
  pp.numUpdatedPages = 300;
  Rng rng(seed);
  s.pages = generatePublishing(pp, alpha, 0.85, rng).pages;
  s.params.totalRequests = 30000;
  s.params.numProxies = 40;
  s.params.zipfAlpha = alpha;
  return s;
}

TEST(PopularityClassTest, BoundariesFollowRateDecades) {
  // alpha = 1.5: rate drops 10x at rank 10^(2/3) ~ 4.64.
  EXPECT_EQ(popularityClassForRank(1, 1.5), 0);
  EXPECT_EQ(popularityClassForRank(4, 1.5), 0);
  EXPECT_EQ(popularityClassForRank(5, 1.5), 1);
  EXPECT_EQ(popularityClassForRank(21, 1.5), 1);
  EXPECT_EQ(popularityClassForRank(22, 1.5), 2);
  EXPECT_EQ(popularityClassForRank(100, 1.5), 3);
  // alpha = 1.0: decades at 10, 100, 1000.
  EXPECT_EQ(popularityClassForRank(10, 1.0), 1);
  EXPECT_EQ(popularityClassForRank(100, 1.0), 2);
  EXPECT_EQ(popularityClassForRank(1000, 1.0), 3);
  EXPECT_THROW(popularityClassForRank(0, 1.0), std::invalid_argument);
}

TEST(RequestsTest, TotalCountMatches) {
  auto s = makeSetup(1);
  Rng rng(2);
  const auto reqs = generateRequests(s.params, s.horizon, s.pages, rng);
  EXPECT_EQ(reqs.size(), 30000u);
}

TEST(RequestsTest, RequestsSortedAndInRange) {
  auto s = makeSetup(3);
  Rng rng(4);
  const auto reqs = generateRequests(s.params, s.horizon, s.pages, rng);
  SimTime prev = 0.0;
  for (const auto& r : reqs) {
    EXPECT_GE(r.time, prev);
    EXPECT_LE(r.time, s.horizon);
    EXPECT_LT(r.page, s.pages.size());
    EXPECT_LT(r.proxy, s.params.numProxies);
    prev = r.time;
  }
}

TEST(RequestsTest, NoRequestBeforeFirstPublish) {
  auto s = makeSetup(5);
  Rng rng(6);
  const auto reqs = generateRequests(s.params, s.horizon, s.pages, rng);
  for (const auto& r : reqs) {
    EXPECT_GE(r.time, s.pages[r.page].firstPublish);
  }
}

TEST(RequestsTest, PerPageCountsRecorded) {
  auto s = makeSetup(7);
  Rng rng(8);
  const auto reqs = generateRequests(s.params, s.horizon, s.pages, rng);
  std::map<PageId, std::uint32_t> counts;
  for (const auto& r : reqs) ++counts[r.page];
  for (const auto& [page, n] : counts) {
    EXPECT_EQ(s.pages[page].requestCount, n);
  }
}

TEST(RequestsTest, PopularityFollowsZipf) {
  auto s = makeSetup(9);
  Rng rng(10);
  generateRequests(s.params, s.horizon, s.pages, rng);
  // Find the rank-1 and rank-8 pages; their counts should differ by
  // roughly 8^1.5 ~ 22.6.
  std::uint32_t n1 = 0, n8 = 0;
  for (const auto& p : s.pages) {
    if (p.popularityRank == 1) n1 = p.requestCount;
    if (p.popularityRank == 8) n8 = p.requestCount;
  }
  ASSERT_GT(n8, 0u);
  EXPECT_NEAR(static_cast<double>(n1) / n8, std::pow(8.0, 1.5), 8.0);
}

TEST(RequestsTest, PoolSizeBoundsRespected) {
  auto s = makeSetup(11);
  s.params.minServerPool = 3;
  Rng rng(12);
  const auto reqs = generateRequests(s.params, s.horizon, s.pages, rng);
  // Proxies per (page, day) never exceed numProxies and the pool floor
  // keeps even unpopular pages on >= 1 proxies overall.
  std::map<std::pair<PageId, int>, std::set<ProxyId>> perDay;
  for (const auto& r : reqs) {
    perDay[{r.page, static_cast<int>(r.time / kDay)}].insert(r.proxy);
  }
  for (const auto& [key, proxies] : perDay) {
    EXPECT_LE(proxies.size(), s.params.numProxies);
  }
}

TEST(RequestsTest, PopularPagesReachMoreProxies) {
  auto s = makeSetup(13);
  Rng rng(14);
  const auto reqs = generateRequests(s.params, s.horizon, s.pages, rng);
  std::map<PageId, std::set<ProxyId>> spread;
  for (const auto& r : reqs) spread[r.page].insert(r.proxy);
  PageId top = 0;
  std::uint32_t topCount = 0;
  for (PageId p = 0; p < s.pages.size(); ++p) {
    if (s.pages[p].requestCount > topCount) {
      topCount = s.pages[p].requestCount;
      top = p;
    }
  }
  // Eq. 6: the most popular page's pool covers all proxies.
  EXPECT_GT(spread[top].size(), s.params.numProxies / 2);
}

TEST(RequestsTest, NotificationDrivenFractionApplied) {
  auto s = makeSetup(15);
  s.params.notificationDrivenFraction = 0.5;
  Rng rng(16);
  const auto reqs = generateRequests(s.params, s.horizon, s.pages, rng);
  const auto driven =
      std::count_if(reqs.begin(), reqs.end(),
                    [](const RequestEvent& r) { return r.notificationDriven; });
  EXPECT_NEAR(static_cast<double>(driven) / reqs.size(), 0.5, 0.03);
}

TEST(RequestsTest, AllDrivenByDefault) {
  auto s = makeSetup(17);
  Rng rng(18);
  const auto reqs = generateRequests(s.params, s.horizon, s.pages, rng);
  for (const auto& r : reqs) EXPECT_TRUE(r.notificationDriven);
}

TEST(RequestsTest, MissingRanksRejected) {
  auto s = makeSetup(19);
  for (auto& p : s.pages) p.popularityRank = 0;
  Rng rng(20);
  EXPECT_THROW(generateRequests(s.params, s.horizon, s.pages, rng),
               std::invalid_argument);
}

TEST(RequestsTest, DeterministicPerSeed) {
  auto s1 = makeSetup(21), s2 = makeSetup(21);
  Rng a(22), b(22);
  const auto r1 = generateRequests(s1.params, s1.horizon, s1.pages, a);
  const auto r2 = generateRequests(s2.params, s2.horizon, s2.pages, b);
  ASSERT_EQ(r1.size(), r2.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].page, r2[i].page);
    EXPECT_EQ(r1[i].proxy, r2[i].proxy);
    EXPECT_DOUBLE_EQ(r1[i].time, r2[i].time);
  }
}

TEST(RequestsTest, FreshnessBiasForTopClass) {
  auto s = makeSetup(23);
  Rng rng(24);
  const auto reqs = generateRequests(s.params, s.horizon, s.pages, rng);
  // For class-0 pages, the median age relative to the nearest preceding
  // version must be small (strong negative age correlation).
  std::vector<double> ages;
  for (const auto& r : reqs) {
    const auto& info = s.pages[r.page];
    if (info.popularityClass != 0) continue;
    double versionTime = info.firstPublish;
    if (info.modificationInterval > 0) {
      const auto k = std::min<std::uint64_t>(
          static_cast<std::uint64_t>((r.time - info.firstPublish) /
                                     info.modificationInterval),
          info.numVersions - 1);
      versionTime = info.firstPublish + k * info.modificationInterval;
    }
    ages.push_back(r.time - versionTime);
  }
  ASSERT_GT(ages.size(), 100u);
  std::sort(ages.begin(), ages.end());
  EXPECT_LT(ages[ages.size() / 2], 6 * kHour);
}

TEST(RequestsTest, TimeOfDayEqualsFmodBitForBit) {
  const auto same = [](SimTime t) {
    return std::bit_cast<std::uint64_t>(timeOfDay(t)) ==
           std::bit_cast<std::uint64_t>(std::fmod(t, kDay));
  };
  Rng rng(25);
  // Random times at every scale up to the horizon bound.
  for (int i = 0; i < 100000; ++i) {
    const SimTime t = std::ldexp(rng.uniform(), static_cast<int>(i % 53));
    ASSERT_TRUE(same(t)) << std::hexfloat << t;
  }
  // +-64 ulps around day boundaries, where t / kDay rounds across them.
  for (int i = 0; i < 2000; ++i) {
    const auto maxDay = static_cast<std::uint64_t>(kMaxHorizon / kDay);
    const std::uint64_t day =
        i < 1000 ? static_cast<std::uint64_t>(i) : rng.uniformInt(maxDay) + 1;
    SimTime t = static_cast<double>(day) * kDay;
    for (int k = 0; k < 64 && t > 0; ++k) t = std::nextafter(t, 0.0);
    for (int k = 0; k <= 128; ++k) {
      ASSERT_TRUE(same(t)) << std::hexfloat << t << " near day " << day;
      t = std::nextafter(t, kMaxHorizon);
    }
  }
}

TEST(RequestsTest, EqualTimesOrderedByProxyThenFlag) {
  // Every page publishes once, a second before the horizon: most of its
  // requests fall past the horizon and are clamped onto it, so one page
  // gets many requests at one time, from three proxies, with both flags.
  auto s = makeSetup(27);
  for (auto& p : s.pages) {
    p.firstPublish = s.horizon - 1.0;
    p.modificationInterval = 0.0;
    p.numVersions = 1;
  }
  s.params.numProxies = 3;
  s.params.minServerPool = 3;
  s.params.notificationDrivenFraction = 0.5;
  Rng rng(28);
  const auto reqs = generateRequests(s.params, s.horizon, s.pages, rng);
  const auto key = [](const RequestEvent& r) {
    return std::make_tuple(r.time, r.page, static_cast<ProxyId>(r.proxy),
                           static_cast<bool>(r.notificationDriven));
  };
  std::size_t fullTies = 0, flagTies = 0;
  for (std::size_t i = 1; i < reqs.size(); ++i) {
    ASSERT_LE(key(reqs[i - 1]), key(reqs[i])) << "at " << i;
    if (reqs[i - 1].time == s.horizon && reqs[i].time == s.horizon &&
        reqs[i - 1].page == reqs[i].page &&
        reqs[i - 1].proxy == reqs[i].proxy) {
      ++fullTies;
      if (reqs[i - 1].notificationDriven != reqs[i].notificationDriven) {
        ++flagTies;
      }
    }
  }
  EXPECT_GT(fullTies, 1000u);
  EXPECT_GT(flagTies, 100u);
}

TEST(RequestsTest, RejectsTooManyProxiesAndBadHorizonByName) {
  auto s = makeSetup(29);
  const auto error = [&](const RequestParams& params, SimTime horizon) {
    Rng rng(30);
    try {
      generateRequests(params, horizon, s.pages, rng);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  RequestParams many = s.params;
  many.numProxies = kMaxProxies + 1;
  EXPECT_NE(error(many, s.horizon).find("2^31"), std::string::npos);
  EXPECT_NE(error(s.params, kMaxHorizon).find("horizon"), std::string::npos);
  EXPECT_NE(error(s.params, std::numeric_limits<double>::quiet_NaN())
                .find("horizon"),
            std::string::npos);
}

}  // namespace
}  // namespace pscd
