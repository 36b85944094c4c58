#include "pscd/pubsub/matcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "pscd/oracle/reference_matcher.h"
#include "pscd/util/rng.h"

namespace pscd {
namespace {

Subscription sub(ProxyId proxy, std::vector<Predicate> preds) {
  Subscription s;
  s.proxy = proxy;
  s.conjuncts = std::move(preds);
  return s;
}

ContentAttributes attrs(PageId page, std::uint32_t category,
                        std::vector<std::uint32_t> keywords = {}) {
  ContentAttributes a;
  a.page = page;
  a.category = category;
  a.keywords = std::move(keywords);
  return a;
}

TEST(PredicateTest, PageIdEq) {
  const Predicate p{Predicate::Kind::kPageIdEq, 7};
  EXPECT_TRUE(p.matches(attrs(7, 0)));
  EXPECT_FALSE(p.matches(attrs(8, 0)));
}

TEST(PredicateTest, CategoryEq) {
  const Predicate p{Predicate::Kind::kCategoryEq, 3};
  EXPECT_TRUE(p.matches(attrs(0, 3)));
  EXPECT_FALSE(p.matches(attrs(0, 4)));
}

TEST(PredicateTest, KeywordContains) {
  const Predicate p{Predicate::Kind::kKeywordContains, 11};
  EXPECT_TRUE(p.matches(attrs(0, 0, {5, 11, 9})));
  EXPECT_FALSE(p.matches(attrs(0, 0, {5, 9})));
  EXPECT_FALSE(p.matches(attrs(0, 0)));
}

TEST(SubscriptionTest, ConjunctionSemantics) {
  const auto s = sub(0, {{Predicate::Kind::kCategoryEq, 2},
                         {Predicate::Kind::kKeywordContains, 4}});
  EXPECT_TRUE(s.matches(attrs(1, 2, {4})));
  EXPECT_FALSE(s.matches(attrs(1, 2, {5})));
  EXPECT_FALSE(s.matches(attrs(1, 3, {4})));
}

TEST(SubscriptionTest, EmptyConjunctionNeverMatches) {
  const Subscription s;
  EXPECT_FALSE(s.matches(attrs(0, 0)));
}

TEST(SubscriptionTest, ToStringReadable) {
  const auto s = sub(3, {{Predicate::Kind::kCategoryEq, 7}});
  EXPECT_EQ(toString(s), "proxy 3: category==7");
}

TEST(MatchingEngineTest, SingleSubscriptionMatch) {
  MatchingEngine e;
  const auto id = e.addSubscription(sub(2, {{Predicate::Kind::kPageIdEq, 5}}));
  const auto r = e.match(attrs(5, 0));
  ASSERT_EQ(r.subscriptions.size(), 1u);
  EXPECT_EQ(r.subscriptions[0], id);
  ASSERT_EQ(r.proxyCounts.size(), 1u);
  EXPECT_EQ(r.proxyCounts[0], (std::pair<ProxyId, std::uint32_t>{2, 1}));
}

TEST(MatchingEngineTest, ConjunctionRequiresAllPredicates) {
  MatchingEngine e;
  e.addSubscription(sub(0, {{Predicate::Kind::kCategoryEq, 1},
                            {Predicate::Kind::kKeywordContains, 9}}));
  EXPECT_TRUE(e.match(attrs(0, 1, {9})).subscriptions.size() == 1);
  EXPECT_TRUE(e.match(attrs(0, 1, {8})).subscriptions.empty());
  EXPECT_TRUE(e.match(attrs(0, 2, {9})).subscriptions.empty());
}

TEST(MatchingEngineTest, DuplicatePredicatesCollapsed) {
  MatchingEngine e;
  e.addSubscription(sub(0, {{Predicate::Kind::kCategoryEq, 1},
                            {Predicate::Kind::kCategoryEq, 1}}));
  // If duplicates were kept, numConjuncts would be 2 and a single
  // category hit could never satisfy the subscription.
  EXPECT_EQ(e.match(attrs(0, 1)).subscriptions.size(), 1u);
}

TEST(MatchingEngineTest, PerProxyCountsAggregate) {
  MatchingEngine e;
  e.addSubscription(sub(1, {{Predicate::Kind::kCategoryEq, 5}}));
  e.addSubscription(sub(1, {{Predicate::Kind::kKeywordContains, 3}}));
  e.addSubscription(sub(4, {{Predicate::Kind::kCategoryEq, 5}}));
  const auto r = e.match(attrs(0, 5, {3}));
  ASSERT_EQ(r.proxyCounts.size(), 2u);
  EXPECT_EQ(r.proxyCounts[0], (std::pair<ProxyId, std::uint32_t>{1, 2}));
  EXPECT_EQ(r.proxyCounts[1], (std::pair<ProxyId, std::uint32_t>{4, 1}));
}

TEST(MatchingEngineTest, RemoveSubscription) {
  MatchingEngine e;
  const auto id = e.addSubscription(sub(0, {{Predicate::Kind::kPageIdEq, 1}}));
  EXPECT_EQ(e.size(), 1u);
  EXPECT_TRUE(e.removeSubscription(id));
  EXPECT_EQ(e.size(), 0u);
  EXPECT_TRUE(e.match(attrs(1, 0)).subscriptions.empty());
  EXPECT_FALSE(e.removeSubscription(id));     // double remove
  EXPECT_FALSE(e.removeSubscription(99999));  // unknown id
}

TEST(MatchingEngineTest, EmptyConjunctionRejected) {
  MatchingEngine e;
  EXPECT_THROW(e.addSubscription(sub(0, {})), std::invalid_argument);
}

TEST(MatchingEngineTest, KeywordOnlyNeedsOneOccurrence) {
  MatchingEngine e;
  e.addSubscription(sub(0, {{Predicate::Kind::kKeywordContains, 7}}));
  // Page attributes listing the keyword twice must not double-count.
  EXPECT_EQ(e.match(attrs(0, 0, {7, 7})).subscriptions.size(), 1u);
}

TEST(MatchingEngineTest, SparseProxyIdsGiveSortedCounts) {
  MatchingEngine e;
  e.addSubscription(sub(70000, {{Predicate::Kind::kCategoryEq, 1}}));
  e.addSubscription(sub(3, {{Predicate::Kind::kCategoryEq, 1}}));
  e.addSubscription(sub(70000, {{Predicate::Kind::kKeywordContains, 2}}));
  const auto r = e.match(attrs(0, 1, {2}));
  ASSERT_EQ(r.proxyCounts.size(), 2u);
  EXPECT_EQ(r.proxyCounts[0], (std::pair<ProxyId, std::uint32_t>{3, 1}));
  EXPECT_EQ(r.proxyCounts[1], (std::pair<ProxyId, std::uint32_t>{70000, 2}));
  // The per-proxy counters start from zero again on the next match.
  EXPECT_EQ(e.match(attrs(0, 1, {2})).proxyCounts, r.proxyCounts);
  e.checkInvariants();
}

TEST(MatchingEngineTest, RemovingEverySubscriptionEmptiesTheIndex) {
  MatchingEngine e;
  const auto a = e.addSubscription(sub(0, {{Predicate::Kind::kCategoryEq, 1},
                                           {Predicate::Kind::kPageIdEq, 4}}));
  const auto b = e.addSubscription(sub(1, {{Predicate::Kind::kCategoryEq, 1}}));
  EXPECT_EQ(e.size(), 2u);
  EXPECT_TRUE(e.removeSubscription(b));
  EXPECT_EQ(e.size(), 1u);
  e.checkInvariants();
  EXPECT_TRUE(e.removeSubscription(a));
  EXPECT_EQ(e.size(), 0u);
  // checkInvariants rejects a mapped bucket that is empty.
  e.checkInvariants();
  EXPECT_TRUE(e.match(attrs(4, 1)).subscriptions.empty());
  // Ids keep counting from the record table, as in ReferenceMatcher.
  EXPECT_EQ(e.addSubscription(sub(0, {{Predicate::Kind::kPageIdEq, 4}})), 2u);
}

/// Matches `a` on both sides and compares the sorted ids and the counts.
void expectSameMatch(const MatchingEngine& e, const ReferenceMatcher& ref,
                     const ContentAttributes& a) {
  MatchResult got = e.match(a);
  const MatchResult want = ref.match(a);
  std::sort(got.subscriptions.begin(), got.subscriptions.end());
  EXPECT_EQ(got.subscriptions, want.subscriptions);
  EXPECT_EQ(got.proxyCounts, want.proxyCounts);
}

TEST(MatchingEngineTest, ThreeConjunctsAllNeedAMatch) {
  MatchingEngine e;
  const auto id = e.addSubscription(
      sub(3, {{Predicate::Kind::kKeywordContains, 9},
              {Predicate::Kind::kCategoryEq, 1},
              {Predicate::Kind::kPageIdEq, 5}}));
  // Every pair of the three conjuncts, including the access one.
  EXPECT_TRUE(e.match(attrs(5, 1, {8})).subscriptions.empty());
  EXPECT_TRUE(e.match(attrs(5, 2, {9})).subscriptions.empty());
  EXPECT_TRUE(e.match(attrs(6, 1, {9})).subscriptions.empty());
  EXPECT_EQ(e.match(attrs(5, 1, {9})).subscriptions,
            std::vector<SubscriptionId>{id});
  e.checkInvariants();
  EXPECT_TRUE(e.removeSubscription(id));
  e.checkInvariants();
  EXPECT_TRUE(e.match(attrs(5, 1, {9})).subscriptions.empty());
}

TEST(MatchingEngineTest, RemovingFromTheMiddleMovesTheLastPosting) {
  MatchingEngine e;
  ReferenceMatcher ref;
  std::vector<SubscriptionId> ids;
  // Five single- and five two-conjunct subscriptions, all posted under
  // category 1, because the keyword's bucket already holds ten.
  for (std::uint32_t i = 0; i < 10; ++i) {
    const Subscription s = sub(i % 3, {{Predicate::Kind::kKeywordContains, 9}});
    ids.push_back(e.addSubscription(s));
    ref.addSubscription(s);
  }
  for (std::uint32_t i = 0; i < 10; ++i) {
    const Subscription s =
        i % 2 == 0 ? sub(i % 4, {{Predicate::Kind::kCategoryEq, 1}})
                   : sub(i % 4, {{Predicate::Kind::kCategoryEq, 1},
                                 {Predicate::Kind::kKeywordContains, 9}});
    ids.push_back(e.addSubscription(s));
    ref.addSubscription(s);
  }
  const ContentAttributes both = attrs(0, 1, {9});
  expectSameMatch(e, ref, both);
  // Category 1 holds singles 10 12 14 16 18 and the others 11 13 15 17
  // 19. Remove from the middle of each list, then the subscription that
  // was moved into the gap.
  for (const SubscriptionId id : {ids[14], ids[18], ids[15], ids[19]}) {
    ASSERT_TRUE(e.removeSubscription(id));
    ASSERT_TRUE(ref.removeSubscription(id));
    e.checkInvariants();
    expectSameMatch(e, ref, both);
    expectSameMatch(e, ref, attrs(0, 1));
  }
}

TEST(MatchingEngineTest, EmptiedBucketIsReusedByAnotherKey) {
  MatchingEngine e;
  const auto a = e.addSubscription(sub(0, {{Predicate::Kind::kPageIdEq, 1}}));
  const auto b = e.addSubscription(sub(1, {{Predicate::Kind::kPageIdEq, 2},
                                           {Predicate::Kind::kCategoryEq, 3}}));
  EXPECT_TRUE(e.removeSubscription(a));
  e.checkInvariants();
  // Page 7's bucket takes the slot page 1's left behind.
  const auto c = e.addSubscription(sub(2, {{Predicate::Kind::kPageIdEq, 7}}));
  e.checkInvariants();
  EXPECT_TRUE(e.match(attrs(1, 0)).subscriptions.empty());
  EXPECT_EQ(e.match(attrs(7, 0)).subscriptions,
            std::vector<SubscriptionId>{c});
  EXPECT_EQ(e.match(attrs(2, 3)).subscriptions,
            std::vector<SubscriptionId>{b});
  EXPECT_TRUE(e.removeSubscription(c));
  EXPECT_TRUE(e.removeSubscription(b));
  e.checkInvariants();
  EXPECT_TRUE(e.match(attrs(7, 3)).subscriptions.empty());
}

TEST(MatchingEngineTest, TwoCategoryConjunctsNeverMatch) {
  MatchingEngine e;
  // Category 1's bucket is longer, so the second subscription is posted
  // under category 2 and the first under category 1.
  e.addSubscription(sub(0, {{Predicate::Kind::kCategoryEq, 1},
                            {Predicate::Kind::kCategoryEq, 2}}));
  e.addSubscription(sub(1, {{Predicate::Kind::kCategoryEq, 2},
                            {Predicate::Kind::kCategoryEq, 1}}));
  e.checkInvariants();
  for (const std::uint32_t category : {1u, 2u, 3u}) {
    EXPECT_TRUE(e.match(attrs(0, category)).subscriptions.empty())
        << "category " << category;
  }
}

TEST(MatchingEngineTest, FifoChurnCompactsAndAgreesWithReference) {
  // 10^4 live subscriptions replaced oldest-first five times over.
  constexpr std::size_t kLive = 10000;
  Rng rng(77);
  const auto randomSub = [&rng] {
    std::vector<Predicate> preds = {
        {Predicate::Kind::kCategoryEq,
         static_cast<std::uint32_t>(rng.uniformInt(std::uint64_t{20}))}};
    if (rng.bernoulli(0.5)) {
      preds.push_back(
          {Predicate::Kind::kKeywordContains,
           static_cast<std::uint32_t>(rng.uniformInt(std::uint64_t{50}))});
    }
    return sub(static_cast<ProxyId>(rng.uniformInt(std::uint64_t{16})),
               std::move(preds));
  };
  MatchingEngine e;
  ReferenceMatcher ref;
  std::deque<SubscriptionId> live;
  for (std::size_t i = 0; i < kLive; ++i) {
    const Subscription s = randomSub();
    live.push_back(e.addSubscription(s));
    ASSERT_EQ(ref.addSubscription(s), live.back());
  }
  for (std::size_t step = 0; step < 5 * kLive; ++step) {
    ASSERT_TRUE(e.removeSubscription(live.front()));
    ASSERT_TRUE(ref.removeSubscription(live.front()));
    live.pop_front();
    const Subscription s = randomSub();
    live.push_back(e.addSubscription(s));
    ASSERT_EQ(ref.addSubscription(s), live.back());
    if (step % 1000 == 0) {
      const ContentAttributes a =
          attrs(0, static_cast<std::uint32_t>(rng.uniformInt(std::uint64_t{20})),
                {static_cast<std::uint32_t>(rng.uniformInt(std::uint64_t{50}))});
      MatchResult got = e.match(a);
      const MatchResult want = ref.match(a);
      std::sort(got.subscriptions.begin(), got.subscriptions.end());
      ASSERT_EQ(got.subscriptions, want.subscriptions) << "step " << step;
      ASSERT_EQ(got.proxyCounts, want.proxyCounts) << "step " << step;
    }
  }
  EXPECT_EQ(e.size(), kLive);
  e.checkInvariants();
}

TEST(MatchingEngineTest, MatchesAgreeWithBruteForce) {
  // Property test: inverted-index matching == naive evaluation.
  Rng rng(123);
  MatchingEngine e;
  std::vector<Subscription> subs;
  for (int i = 0; i < 300; ++i) {
    Subscription s;
    s.proxy = static_cast<ProxyId>(rng.uniformInt(std::uint64_t{10}));
    const int n = 1 + static_cast<int>(rng.uniformInt(std::uint64_t{3}));
    for (int k = 0; k < n; ++k) {
      Predicate p;
      switch (rng.uniformInt(std::uint64_t{3})) {
        case 0:
          p.kind = Predicate::Kind::kPageIdEq;
          p.value =
              static_cast<std::uint32_t>(rng.uniformInt(std::uint64_t{20}));
          break;
        case 1:
          p.kind = Predicate::Kind::kCategoryEq;
          p.value =
              static_cast<std::uint32_t>(rng.uniformInt(std::uint64_t{5}));
          break;
        default:
          p.kind = Predicate::Kind::kKeywordContains;
          p.value =
              static_cast<std::uint32_t>(rng.uniformInt(std::uint64_t{8}));
      }
      s.conjuncts.push_back(p);
    }
    subs.push_back(s);
    e.addSubscription(s);
  }
  for (int trial = 0; trial < 200; ++trial) {
    ContentAttributes a;
    a.page = static_cast<PageId>(rng.uniformInt(std::uint64_t{20}));
    a.category = static_cast<std::uint32_t>(rng.uniformInt(std::uint64_t{5}));
    const int kw = static_cast<int>(rng.uniformInt(std::uint64_t{4}));
    for (int k = 0; k < kw; ++k) {
      a.keywords.push_back(
          static_cast<std::uint32_t>(rng.uniformInt(std::uint64_t{8})));
    }
    const auto got = e.match(a);
    std::size_t expected = 0;
    for (const auto& s : subs) expected += s.matches(a);
    EXPECT_EQ(got.subscriptions.size(), expected);
  }
}

}  // namespace
}  // namespace pscd
