// Parameterized property tests: every strategy in the factory is driven
// through randomized push/request sequences and must uphold the
// structural invariants of a content-distribution cache.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "pscd/cache/strategy_factory.h"
#include "pscd/util/rng.h"

namespace pscd {
namespace {

constexpr StrategyKind kAllKinds[] = {
    StrategyKind::kGDStar, StrategyKind::kSUB,   StrategyKind::kSG1,
    StrategyKind::kSG2,    StrategyKind::kSR,    StrategyKind::kDM,
    StrategyKind::kDCFP,   StrategyKind::kDCAP,  StrategyKind::kDCLAP,
    StrategyKind::kLRU,    StrategyKind::kGDS,   StrategyKind::kLFUDA,
};

struct Op {
  bool isPush;
  PageId page;
  Version version;
  Bytes size;
  std::uint32_t subs;
  SimTime time;
};

std::vector<Op> randomOps(std::uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<Op> ops;
  std::map<PageId, Version> latest;
  std::map<PageId, Bytes> size;
  for (int i = 0; i < count; ++i) {
    Op op;
    op.page = static_cast<PageId>(rng.uniformInt(std::uint64_t{25}));
    if (!latest.contains(op.page) || rng.bernoulli(0.15)) {
      // (Re-)publish: bump the version.
      op.isPush = true;
      op.version = latest.contains(op.page) ? latest[op.page] + 1 : 0;
      latest[op.page] = op.version;
      size[op.page] = 16 + 8 * rng.uniformInt(std::uint64_t{20});
    } else {
      op.isPush = rng.bernoulli(0.4);
      op.version = latest[op.page];
    }
    op.size = size[op.page];
    op.subs = 1 + static_cast<std::uint32_t>(rng.uniformInt(std::uint64_t{9}));
    op.time = static_cast<SimTime>(i);
    ops.push_back(op);
  }
  return ops;
}

class StrategyPropertyTest : public ::testing::TestWithParam<StrategyKind> {
 protected:
  static std::unique_ptr<DistributionStrategy> make(Bytes capacity) {
    StrategyParams p;
    p.capacity = capacity;
    p.fetchCost = 1.3;
    p.beta = 2.0;
    return makeStrategy(GetParam(), p);
  }
};

TEST_P(StrategyPropertyTest, InvariantsUnderRandomChurn) {
  const auto s = make(400);
  for (const Op& op : randomOps(77, 1500)) {
    if (op.isPush) {
      s->onPush({op.page, op.version, op.size, op.subs, op.time});
    } else {
      s->onRequest({op.page, op.version, op.size, op.subs, op.time});
    }
    ASSERT_LE(s->usedBytes(), s->capacityBytes());
    ASSERT_NO_THROW(s->checkInvariants());
  }
}

TEST_P(StrategyPropertyTest, NeverHitsUnseenPage) {
  const auto s = make(1000);
  Rng rng(5);
  std::map<PageId, bool> seen;
  for (const Op& op : randomOps(11, 600)) {
    if (op.isPush) {
      s->onPush({op.page, op.version, op.size, op.subs, op.time});
      seen[op.page] = true;
    } else {
      const auto out =
          s->onRequest({op.page, op.version, op.size, op.subs, op.time});
      if (!seen.contains(op.page)) {
        ASSERT_FALSE(out.hit) << "hit on never-seen page " << op.page;
      }
      seen[op.page] = true;
    }
  }
}

TEST_P(StrategyPropertyTest, StoredPushIsImmediatelyHittable) {
  const auto s = make(500);
  for (const Op& op : randomOps(23, 800)) {
    if (!op.isPush) continue;
    const auto out =
        s->onPush({op.page, op.version, op.size, op.subs, op.time});
    if (out.stored) {
      const auto r = s->onRequest(
          {op.page, op.version, op.size, op.subs, op.time + 0.5});
      ASSERT_TRUE(r.hit) << strategyName(GetParam()) << " stored page " << op.page
                         << " but missed the next request";
    }
  }
}

TEST_P(StrategyPropertyTest, NewerVersionNeverServedStale) {
  const auto s = make(500);
  // Probe versions count upward from far above anything the op stream
  // (or a previous probe) ever stored, so a hit would mean the strategy
  // served a version it cannot possess.
  Version probe = 1000;
  for (const Op& op : randomOps(31, 500)) {
    if (op.isPush) {
      s->onPush({op.page, op.version, op.size, op.subs, op.time});
    } else {
      s->onRequest({op.page, op.version, op.size, op.subs, op.time});
    }
    const auto r = s->onRequest(
        {op.page, ++probe, op.size, op.subs, op.time + 0.25});
    ASSERT_FALSE(r.hit);
  }
}

TEST_P(StrategyPropertyTest, DeterministicReplay) {
  const auto a = make(300);
  const auto b = make(300);
  for (const Op& op : randomOps(99, 700)) {
    if (op.isPush) {
      const PushContext ctx{op.page, op.version, op.size, op.subs, op.time};
      ASSERT_EQ(a->onPush(ctx).stored, b->onPush(ctx).stored);
    } else {
      const RequestContext ctx{op.page, op.version, op.size, op.subs,
                               op.time};
      const auto ra = a->onRequest(ctx);
      const auto rb = b->onRequest(ctx);
      ASSERT_EQ(ra.hit, rb.hit);
      ASSERT_EQ(ra.storedAfterMiss, rb.storedAfterMiss);
    }
  }
  EXPECT_EQ(a->usedBytes(), b->usedBytes());
}

TEST_P(StrategyPropertyTest, TinyCapacityNeverOverflows) {
  const auto s = make(40);  // smaller than many pages
  for (const Op& op : randomOps(123, 800)) {
    if (op.isPush) {
      s->onPush({op.page, op.version, op.size, op.subs, op.time});
    } else {
      s->onRequest({op.page, op.version, op.size, op.subs, op.time});
    }
    ASSERT_LE(s->usedBytes(), 40u);
  }
}

TEST_P(StrategyPropertyTest, PushOnlyAffectsPushCapableStrategies) {
  const auto s = make(500);
  const auto out = s->onPush({1, 0, 100, 5, 0.0});
  if (!s->pushCapable()) {
    EXPECT_FALSE(out.stored);
    EXPECT_EQ(s->usedBytes(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyPropertyTest, ::testing::ValuesIn(kAllKinds),
    [](const ::testing::TestParamInfo<StrategyKind>& info) {
      std::string name{strategyName(info.param)};
      for (auto& c : name) {
        if (c == '*') c = 's';
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace pscd
