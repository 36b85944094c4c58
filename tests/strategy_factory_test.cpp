#include "pscd/cache/strategy_factory.h"

#include <gtest/gtest.h>

namespace pscd {
namespace {

StrategyParams params() {
  StrategyParams p;
  p.capacity = 1000;
  p.fetchCost = 1.5;
  p.beta = 2.0;
  return p;
}

TEST(StrategyFactoryTest, NamesRoundTrip) {
  for (const StrategyKind kind :
       {StrategyKind::kGDStar, StrategyKind::kSUB, StrategyKind::kSG1,
        StrategyKind::kSG2, StrategyKind::kSR, StrategyKind::kDM,
        StrategyKind::kDCFP, StrategyKind::kDCAP, StrategyKind::kDCLAP,
        StrategyKind::kLRU, StrategyKind::kGDS, StrategyKind::kLFUDA}) {
    EXPECT_EQ(parseStrategyKind(strategyName(kind)), kind);
  }
}

TEST(StrategyFactoryTest, ParseRejectsUnknown) {
  EXPECT_THROW(parseStrategyKind("NOPE"), std::invalid_argument);
  EXPECT_THROW(parseStrategyKind(""), std::invalid_argument);
}

TEST(StrategyFactoryTest, ConstructedNamesMatchEnum) {
  for (const StrategyKind kind : kPaperStrategies) {
    const auto s = makeStrategy(kind, params());
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->capacityBytes(), 1000u);
    EXPECT_EQ(s->usedBytes(), 0u);
  }
}

TEST(StrategyFactoryTest, PushCapabilityMatrix) {
  const auto capable = [&](StrategyKind k) {
    return makeStrategy(k, params())->pushCapable();
  };
  EXPECT_FALSE(capable(StrategyKind::kGDStar));
  EXPECT_FALSE(capable(StrategyKind::kLRU));
  EXPECT_FALSE(capable(StrategyKind::kGDS));
  EXPECT_FALSE(capable(StrategyKind::kLFUDA));
  EXPECT_TRUE(capable(StrategyKind::kSUB));
  EXPECT_TRUE(capable(StrategyKind::kSG1));
  EXPECT_TRUE(capable(StrategyKind::kSG2));
  EXPECT_TRUE(capable(StrategyKind::kSR));
  EXPECT_TRUE(capable(StrategyKind::kDM));
  EXPECT_TRUE(capable(StrategyKind::kDCFP));
  EXPECT_TRUE(capable(StrategyKind::kDCAP));
  EXPECT_TRUE(capable(StrategyKind::kDCLAP));
}

TEST(StrategyFactoryTest, DualCacheFractionsApplied) {
  StrategyParams p = params();
  p.dcInitialPcFraction = 0.3;
  const auto s = makeStrategy(StrategyKind::kDCFP, p);
  // 30% of 1000 bytes for the push cache, verified indirectly: a 350-
  // byte push cannot fit in PC but a 250-byte one can.
  PushContext big{1, 0, 350, 10, 0.0};
  PushContext small{2, 0, 250, 10, 0.0};
  EXPECT_FALSE(s->onPush(big).stored);
  EXPECT_TRUE(s->onPush(small).stored);
}

TEST(StrategyFactoryTest, PaperStrategiesListComplete) {
  EXPECT_EQ(std::size(kPaperStrategies), 9u);
}

TEST(LruStrategyTest, EvictsLeastRecentlyUsed) {
  const auto s = makeStrategy(StrategyKind::kLRU,
                              {.capacity = 100, .fetchCost = 1.0});
  RequestContext r1{1, 0, 50, 0, 0.0};
  RequestContext r2{2, 0, 50, 0, 1.0};
  RequestContext r3{3, 0, 50, 0, 2.0};
  s->onRequest(r1);
  s->onRequest(r2);
  s->onRequest(r1);  // page 1 recently used
  s->onRequest(r3);  // evicts page 2
  EXPECT_TRUE(s->onRequest(r1).hit);
  EXPECT_FALSE(s->onRequest(r2).hit);
  s->checkInvariants();
}

TEST(LruStrategyTest, StaleCopyRefetched) {
  const auto s = makeStrategy(StrategyKind::kLRU,
                              {.capacity = 100, .fetchCost = 1.0});
  RequestContext v0{1, 0, 50, 0, 0.0};
  s->onRequest(v0);
  RequestContext v1{1, 1, 50, 0, 1.0};
  const auto out = s->onRequest(v1);
  EXPECT_FALSE(out.hit);
  EXPECT_TRUE(out.stale);
  EXPECT_TRUE(s->onRequest(v1).hit);
}

TEST(LruStrategyTest, OversizedPageSkipped) {
  const auto s = makeStrategy(StrategyKind::kLRU,
                              {.capacity = 100, .fetchCost = 1.0});
  RequestContext r{1, 0, 500, 0, 0.0};
  EXPECT_FALSE(s->onRequest(r).storedAfterMiss);
  EXPECT_EQ(s->usedBytes(), 0u);
}

}  // namespace
}  // namespace pscd
