// Broker: the publish/subscribe brokering system of figure 1. It owns
// the matching engine, accepts subscriptions (either as full predicate
// subscriptions or pre-aggregated per-proxy counts, mirroring the
// "subscription aggregator" each proxy runs), and on publish produces
// the per-proxy notification fan-out consumed by the content
// distribution engine.
#pragma once

#include <cstdint>
#include <vector>

#include "pscd/pubsub/attributes.h"
#include "pscd/pubsub/matcher.h"
#include "pscd/pubsub/subscription.h"
#include "pscd/util/flat_map.h"
#include "pscd/util/types.h"

namespace pscd {

struct Notification {
  ProxyId proxy = 0;
  /// Number of end-user subscriptions at this proxy matching the page.
  std::uint32_t matchCount = 0;

  friend bool operator==(const Notification&, const Notification&) = default;
};

class Broker {
 public:
  explicit Broker(std::uint32_t numProxies);

  std::uint32_t numProxies() const { return numProxies_; }

  /// Registers one end-user subscription (predicate form).
  SubscriptionId subscribe(Subscription sub);

  bool unsubscribe(SubscriptionId id);

  /// Registers `count` end-user subscriptions at `proxy` that match
  /// exactly page `page`; counts accumulate across calls. This is the
  /// aggregated form a proxy's subscription aggregator reports upstream.
  /// Throws std::overflow_error, changing nothing, when the accumulated
  /// count would exceed UINT32_MAX.
  void subscribeAggregated(ProxyId proxy, PageId page, std::uint32_t count);

  /// Removes up to `count` aggregated subscriptions (clamping at zero);
  /// returns the number actually removed. Supports subscription churn.
  std::uint32_t unsubscribeAggregated(ProxyId proxy, PageId page,
                                      std::uint32_t count);

  /// Matches a publish event against all subscriptions; returns the
  /// per-proxy notification list sorted by proxy id (proxies with zero
  /// matches are omitted). Updates fan-out statistics.
  std::vector<Notification> publish(const ContentAttributes& attrs);
  /// The same, refilling `out` in place so its capacity is reused.
  void publish(const ContentAttributes& attrs, std::vector<Notification>& out);

  /// Total subscriptions matching `page` at `proxy` via the aggregated
  /// path (the predicate path is dynamic and not included).
  std::uint32_t aggregatedCount(ProxyId proxy, PageId page) const;

  std::uint64_t publishCount() const { return publishCount_; }
  std::uint64_t notificationCount() const { return notificationCount_; }

  const MatchingEngine& engine() const { return engine_; }

  /// Validates the matching engine plus the aggregated-subscription
  /// tables (sorted per page, positive counts, proxies in range).
  /// Throws CheckFailure on any violation.
  void checkInvariants() const;

 private:
  friend class InvariantCorrupter;  // test-only state corruption hook

  std::uint32_t numProxies_;
  MatchingEngine engine_;
  /// One page's aggregated (proxy -> count) list, sorted by proxy id.
  struct PageSubs {
    PageId page = 0;
    std::vector<Notification> list;
  };
  /// The pages with aggregated subscriptions, dense: a page whose list
  /// drains is swapped out with the last one.
  std::vector<PageSubs> aggregated_;
  FlatMap<std::uint32_t> aggregatedSlot_;  // page -> position in aggregated_

  /// nullptr when `page` has no aggregated subscriptions.
  const std::vector<Notification>* aggregatedList(PageId page) const;
  std::uint64_t publishCount_ = 0;
  std::uint64_t notificationCount_ = 0;
};

}  // namespace pscd
