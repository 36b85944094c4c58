// Full-scale regression guards for the paper's shape claims: these run
// the canonical NEWS/ALTERNATIVE traces (195k requests, 100 proxies,
// seeds fixed) and assert the qualitative results of section 5 that
// EXPERIMENTS.md reports. If a refactor silently changes a strategy's
// semantics or the workload calibration, these tests catch it even when
// every unit test still passes.
#include <gtest/gtest.h>

#include "pscd/sim/experiment.h"

namespace pscd {
namespace {

ExperimentContext& ctx() {
  static ExperimentContext context;  // workloads cached across tests
  return context;
}

double hit(TraceKind trace, StrategyKind kind, double cap = 0.05,
           double sq = 1.0) {
  return ctx().run({trace, sq, kind, cap}).hitRatio();
}

TEST(PaperClaimsTest, Table2AllPushingSchemesBeatGdStarAt5Percent) {
  for (const TraceKind trace : {TraceKind::kNews, TraceKind::kAlternative}) {
    const double gd = hit(trace, StrategyKind::kGDStar);
    for (const StrategyKind kind :
         {StrategyKind::kSUB, StrategyKind::kSG1, StrategyKind::kSG2,
          StrategyKind::kSR, StrategyKind::kDM, StrategyKind::kDCFP,
          StrategyKind::kDCLAP}) {
      EXPECT_GT(hit(trace, kind), gd)
          << traceName(trace) << " " << strategyName(kind);
    }
  }
}

TEST(PaperClaimsTest, Table2Sg2AndSrLeadTheFamily) {
  for (const TraceKind trace : {TraceKind::kNews, TraceKind::kAlternative}) {
    const double sg2 = hit(trace, StrategyKind::kSG2);
    const double sr = hit(trace, StrategyKind::kSR);
    const double top = std::max(sg2, sr);
    for (const StrategyKind kind :
         {StrategyKind::kSUB, StrategyKind::kSG1, StrategyKind::kDCFP,
          StrategyKind::kDCLAP}) {
      EXPECT_GT(top, hit(trace, kind))
          << traceName(trace) << " " << strategyName(kind);
    }
    // And the two are close to each other (the paper: "The temporal
    // analysis in SG2 does not provide extra benefit to SR").
    EXPECT_NEAR(sg2, sr, 0.02);
  }
}

TEST(PaperClaimsTest, Table2GainsLargerOnAlternativeTrace) {
  // "The much higher gains for ALTERNATIVE mean that the push-time
  // placement module benefits the non-homogeneous request streams more."
  const double newsGd = hit(TraceKind::kNews, StrategyKind::kGDStar);
  const double altGd = hit(TraceKind::kAlternative, StrategyKind::kGDStar);
  for (const StrategyKind kind :
       {StrategyKind::kSUB, StrategyKind::kSG1, StrategyKind::kSG2,
        StrategyKind::kDCLAP}) {
    const double newsGain = hit(TraceKind::kNews, kind) / newsGd;
    const double altGain = hit(TraceKind::kAlternative, kind) / altGd;
    EXPECT_GT(altGain, newsGain) << strategyName(kind);
  }
}

TEST(PaperClaimsTest, Fig4HitRatioGrowsWithCapacity) {
  for (const StrategyKind kind :
       {StrategyKind::kGDStar, StrategyKind::kSUB, StrategyKind::kSG2,
        StrategyKind::kDCLAP}) {
    const double h1 = hit(TraceKind::kNews, kind, 0.01);
    const double h5 = hit(TraceKind::kNews, kind, 0.05);
    const double h10 = hit(TraceKind::kNews, kind, 0.10);
    EXPECT_LE(h1, h5 + 1e-9) << strategyName(kind);
    EXPECT_LE(h5, h10 + 1e-9) << strategyName(kind);
  }
}

TEST(PaperClaimsTest, Fig4GdStarMuchWeakerOnAlternative) {
  EXPECT_LT(hit(TraceKind::kAlternative, StrategyKind::kGDStar),
            hit(TraceKind::kNews, StrategyKind::kGDStar) - 0.15);
}

TEST(PaperClaimsTest, Fig5GdStarIndifferentToSubscriptionQuality) {
  const double base = hit(TraceKind::kNews, StrategyKind::kGDStar, 0.05, 1.0);
  for (const double sq : {0.25, 0.5, 0.75}) {
    EXPECT_NEAR(hit(TraceKind::kNews, StrategyKind::kGDStar, 0.05, sq), base,
                1e-9);
  }
}

TEST(PaperClaimsTest, Fig5SrDegradesMostWithSubscriptionQuality) {
  for (const TraceKind trace : {TraceKind::kNews, TraceKind::kAlternative}) {
    const double srDrop = hit(trace, StrategyKind::kSR, 0.05, 1.0) -
                          hit(trace, StrategyKind::kSR, 0.05, 0.25);
    const double sg1Drop = hit(trace, StrategyKind::kSG1, 0.05, 1.0) -
                           hit(trace, StrategyKind::kSG1, 0.05, 0.25);
    const double lapDrop = hit(trace, StrategyKind::kDCLAP, 0.05, 1.0) -
                           hit(trace, StrategyKind::kDCLAP, 0.05, 0.25);
    EXPECT_GT(srDrop, sg1Drop + 0.03) << traceName(trace);
    EXPECT_GT(srDrop, lapDrop + 0.03) << traceName(trace);
  }
}

TEST(PaperClaimsTest, Fig5Sg2FallsBelowSg1AtLowQualityOnAlternativeOnly) {
  // The paper's most distinctive fig. 5 observation.
  EXPECT_LT(hit(TraceKind::kAlternative, StrategyKind::kSG2, 0.05, 0.25),
            hit(TraceKind::kAlternative, StrategyKind::kSG1, 0.05, 0.25));
  EXPECT_GE(hit(TraceKind::kNews, StrategyKind::kSG2, 0.05, 0.25),
            hit(TraceKind::kNews, StrategyKind::kSG1, 0.05, 0.25) - 0.01);
}

TEST(PaperClaimsTest, Fig6SubDeterioratesOverTheWeek) {
  const auto m = ctx().run({TraceKind::kNews, 1.0, StrategyKind::kSUB, 0.05,
                            PushScheme::kAlwaysPushing, true});
  double early = 0, late = 0;
  const std::size_t half = m.hours() / 2;
  for (std::size_t h = 0; h < half; ++h) early += m.hourlyHitRatio(h);
  for (std::size_t h = half; h < m.hours(); ++h) late += m.hourlyHitRatio(h);
  EXPECT_LT(late / half, early / half - 0.05);
}

TEST(PaperClaimsTest, Fig7TrafficClaims) {
  const auto news = [](StrategyKind kind, PushScheme scheme) {
    return ctx().run({TraceKind::kNews, 1.0, kind, 0.05, scheme});
  };
  const auto gd = news(StrategyKind::kGDStar, PushScheme::kAlwaysPushing);
  const auto gdWn =
      news(StrategyKind::kGDStar, PushScheme::kPushingWhenNecessary);
  // GD* traffic identical under both schemes.
  EXPECT_EQ(gd.traffic().totalPages(), gdWn.traffic().totalPages());

  const auto sub = news(StrategyKind::kSUB, PushScheme::kAlwaysPushing);
  const auto sg2 = news(StrategyKind::kSG2, PushScheme::kAlwaysPushing);
  // SUB generates the most traffic (fetch-on-miss without caching).
  EXPECT_GT(sub.traffic().totalPages(), sg2.traffic().totalPages());
  // Pushing-When-Necessary helps SUB the most.
  const auto subWn =
      news(StrategyKind::kSUB, PushScheme::kPushingWhenNecessary);
  const auto sg2Wn =
      news(StrategyKind::kSG2, PushScheme::kPushingWhenNecessary);
  const auto saved = [](const SimMetrics& always, const SimMetrics& wn) {
    return static_cast<double>(always.traffic().pushPages -
                               wn.traffic().pushPages) /
           static_cast<double>(always.traffic().pushPages);
  };
  EXPECT_GT(saved(sub, subWn), saved(sg2, sg2Wn));
}

TEST(PaperClaimsTest, ResponseTimeMirrorsHitRatioAcrossStrategies) {
  // The paper's motivation: higher H => lower user-perceived latency.
  double prevHit = -1.0, prevRt = 1e9;
  for (const StrategyKind kind :
       {StrategyKind::kGDStar, StrategyKind::kSUB, StrategyKind::kSG2}) {
    const auto m = ctx().run({TraceKind::kNews, 1.0, kind, 0.05});
    EXPECT_GT(m.hitRatio(), prevHit);
    EXPECT_LT(m.meanResponseTime(), prevRt);
    prevHit = m.hitRatio();
    prevRt = m.meanResponseTime();
  }
}

}  // namespace
}  // namespace pscd
