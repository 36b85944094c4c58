#include "pscd/pubsub/broker.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace pscd {
namespace {

ContentAttributes pageAttrs(PageId page) {
  ContentAttributes a;
  a.page = page;
  return a;
}

TEST(BrokerTest, AggregatedCountsAccumulate) {
  Broker b(4);
  b.subscribeAggregated(1, 10, 3);
  b.subscribeAggregated(1, 10, 2);
  EXPECT_EQ(b.aggregatedCount(1, 10), 5u);
  EXPECT_EQ(b.aggregatedCount(0, 10), 0u);
  EXPECT_EQ(b.aggregatedCount(1, 11), 0u);
}

TEST(BrokerTest, AggregatedCountOverflowThrowsWithoutChange) {
  Broker b(2);
  b.subscribeAggregated(1, 9, 0xFFFFFFFFu);
  EXPECT_THROW(b.subscribeAggregated(1, 9, 1), std::overflow_error);
  EXPECT_EQ(b.aggregatedCount(1, 9), 0xFFFFFFFFu);
  b.subscribeAggregated(0, 9, 0xFFFFFFFFu);  // another proxy's own count
  b.checkInvariants();
  const auto n = b.publish(pageAttrs(9));
  ASSERT_EQ(n.size(), 2u);
  EXPECT_EQ(n[0], (Notification{0, 0xFFFFFFFFu}));
  EXPECT_EQ(n[1], (Notification{1, 0xFFFFFFFFu}));
}

TEST(BrokerTest, MergedCountSaturatesInsteadOfWrapping) {
  Broker b(3);
  b.subscribeAggregated(2, 7, 0xFFFFFFFFu);
  Subscription s;
  s.proxy = 2;
  s.conjuncts = {{Predicate::Kind::kPageIdEq, 7}};
  b.subscribe(std::move(s));
  // 2^32 - 1 aggregated plus one predicate match would wrap to zero.
  EXPECT_EQ(b.publish(pageAttrs(7)),
            (std::vector<Notification>{{2, 0xFFFFFFFFu}}));
  EXPECT_EQ(b.notificationCount(), 0xFFFFFFFFu);
}

TEST(BrokerTest, DrainedPageLeavesOtherPagesIntact) {
  Broker b(3);
  b.subscribeAggregated(0, 1, 2);
  b.subscribeAggregated(1, 2, 3);
  b.subscribeAggregated(2, 3, 4);
  EXPECT_EQ(b.unsubscribeAggregated(0, 1, 5), 2u);  // page 1 drains
  b.checkInvariants();
  EXPECT_EQ(b.aggregatedCount(0, 1), 0u);
  EXPECT_EQ(b.aggregatedCount(1, 2), 3u);
  EXPECT_EQ(b.aggregatedCount(2, 3), 4u);
  EXPECT_TRUE(b.publish(pageAttrs(1)).empty());
  EXPECT_EQ(b.publish(pageAttrs(3)), (std::vector<Notification>{{2, 4}}));
  b.subscribeAggregated(0, 1, 1);
  EXPECT_EQ(b.unsubscribeAggregated(2, 3, 4), 4u);  // the last page drains
  b.checkInvariants();
  EXPECT_EQ(b.aggregatedCount(0, 1), 1u);
  EXPECT_EQ(b.aggregatedCount(1, 2), 3u);
}

TEST(BrokerTest, PublishRefillsTheCallersVector) {
  Broker b(3);
  b.subscribeAggregated(2, 4, 5);
  std::vector<Notification> out = {{0, 1}, {1, 1}, {2, 1}};
  b.publish(pageAttrs(4), out);
  EXPECT_EQ(out, (std::vector<Notification>{{2, 5}}));
  b.publish(pageAttrs(6), out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(b.publishCount(), 2u);
  EXPECT_EQ(b.notificationCount(), 5u);
}

TEST(BrokerTest, ZeroCountIgnored) {
  Broker b(2);
  b.subscribeAggregated(0, 5, 0);
  EXPECT_EQ(b.aggregatedCount(0, 5), 0u);
  EXPECT_TRUE(b.publish(pageAttrs(5)).empty());
}

TEST(BrokerTest, PublishReturnsSortedNotifications) {
  Broker b(5);
  b.subscribeAggregated(3, 7, 2);
  b.subscribeAggregated(0, 7, 1);
  b.subscribeAggregated(4, 7, 9);
  const auto n = b.publish(pageAttrs(7));
  ASSERT_EQ(n.size(), 3u);
  EXPECT_EQ(n[0], (Notification{0, 1}));
  EXPECT_EQ(n[1], (Notification{3, 2}));
  EXPECT_EQ(n[2], (Notification{4, 9}));
}

TEST(BrokerTest, PredicateSubscriptionsMergeWithAggregated) {
  Broker b(3);
  b.subscribeAggregated(1, 7, 2);
  Subscription s;
  s.proxy = 1;
  s.conjuncts = {{Predicate::Kind::kPageIdEq, 7}};
  b.subscribe(s);
  Subscription s2;
  s2.proxy = 2;
  s2.conjuncts = {{Predicate::Kind::kPageIdEq, 7}};
  b.subscribe(s2);
  const auto n = b.publish(pageAttrs(7));
  ASSERT_EQ(n.size(), 2u);
  EXPECT_EQ(n[0], (Notification{1, 3}));  // 2 aggregated + 1 predicate
  EXPECT_EQ(n[1], (Notification{2, 1}));
}

TEST(BrokerTest, UnsubscribeStopsNotifications) {
  Broker b(2);
  Subscription s;
  s.proxy = 0;
  s.conjuncts = {{Predicate::Kind::kCategoryEq, 1}};
  const auto id = b.subscribe(s);
  ContentAttributes a;
  a.page = 0;
  a.category = 1;
  EXPECT_EQ(b.publish(a).size(), 1u);
  EXPECT_TRUE(b.unsubscribe(id));
  EXPECT_TRUE(b.publish(a).empty());
}

TEST(BrokerTest, StatisticsTracked) {
  Broker b(2);
  b.subscribeAggregated(0, 1, 4);
  b.publish(pageAttrs(1));
  b.publish(pageAttrs(2));
  EXPECT_EQ(b.publishCount(), 2u);
  EXPECT_EQ(b.notificationCount(), 4u);
}

TEST(BrokerTest, UnsubscribeAggregatedClampsAndRemoves) {
  Broker b(3);
  b.subscribeAggregated(1, 5, 4);
  EXPECT_EQ(b.unsubscribeAggregated(1, 5, 3), 3u);
  EXPECT_EQ(b.aggregatedCount(1, 5), 1u);
  // Removing more than present clamps and erases the entry entirely.
  EXPECT_EQ(b.unsubscribeAggregated(1, 5, 10), 1u);
  EXPECT_EQ(b.aggregatedCount(1, 5), 0u);
  ContentAttributes a;
  a.page = 5;
  EXPECT_TRUE(b.publish(a).empty());
}

TEST(BrokerTest, UnsubscribeUnknownIsNoop) {
  Broker b(2);
  EXPECT_EQ(b.unsubscribeAggregated(0, 9, 1), 0u);
  b.subscribeAggregated(0, 9, 1);
  EXPECT_EQ(b.unsubscribeAggregated(1, 9, 1), 0u);  // other proxy
  EXPECT_THROW(b.unsubscribeAggregated(5, 9, 1), std::out_of_range);
}

TEST(BrokerTest, RangeChecks) {
  Broker b(2);
  EXPECT_THROW(b.subscribeAggregated(2, 0, 1), std::out_of_range);
  Subscription s;
  s.proxy = 9;
  s.conjuncts = {{Predicate::Kind::kPageIdEq, 0}};
  EXPECT_THROW(b.subscribe(s), std::out_of_range);
  EXPECT_THROW(Broker(0), std::invalid_argument);
}

TEST(BrokerTest, PublishForUnknownPageIsEmpty) {
  Broker b(2);
  EXPECT_TRUE(b.publish(pageAttrs(42)).empty());
  EXPECT_EQ(b.publishCount(), 1u);
}

}  // namespace
}  // namespace pscd
