#include "pscd/pubsub/broker.h"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "pscd/util/check.h"
#include "pscd/util/hot.h"

namespace pscd {

Broker::Broker(std::uint32_t numProxies) : numProxies_(numProxies) {
  if (numProxies == 0) {
    throw std::invalid_argument("Broker: numProxies must be > 0");
  }
}

SubscriptionId Broker::subscribe(Subscription sub) {
  if (sub.proxy >= numProxies_) {
    throw std::out_of_range("Broker::subscribe: proxy out of range");
  }
  return engine_.addSubscription(std::move(sub));
}

bool Broker::unsubscribe(SubscriptionId id) {
  return engine_.removeSubscription(id);
}

PSCD_HOT void Broker::subscribeAggregated(ProxyId proxy, PageId page,
                                          std::uint32_t count) {
  if (proxy >= numProxies_) {
    throw std::out_of_range("Broker::subscribeAggregated: proxy out of range");
  }
  if (count == 0) return;
  auto& list = aggregated_[page];
  const auto it = std::lower_bound(
      list.begin(), list.end(), proxy,
      [](const Notification& n, ProxyId p) { return n.proxy < p; });
  if (it != list.end() && it->proxy == proxy) {
    it->matchCount += count;
  } else {
    list.insert(it, Notification{proxy, count});
  }
}

PSCD_HOT std::uint32_t Broker::unsubscribeAggregated(ProxyId proxy,
                                                     PageId page,
                                                     std::uint32_t count) {
  if (proxy >= numProxies_) {
    throw std::out_of_range(
        "Broker::unsubscribeAggregated: proxy out of range");
  }
  const auto pageIt = aggregated_.find(page);
  if (pageIt == aggregated_.end()) return 0;
  auto& list = pageIt->second;
  const auto it = std::lower_bound(
      list.begin(), list.end(), proxy,
      [](const Notification& n, ProxyId p) { return n.proxy < p; });
  if (it == list.end() || it->proxy != proxy) return 0;
  const std::uint32_t removed = std::min(count, it->matchCount);
  it->matchCount -= removed;
  if (it->matchCount == 0) list.erase(it);
  // Drop the page entry entirely once its list drains so churn-heavy
  // workloads do not accumulate empty lists.
  if (list.empty()) aggregated_.erase(pageIt);
  return removed;
}

PSCD_HOT std::uint32_t Broker::aggregatedCount(ProxyId proxy,
                                               PageId page) const {
  const auto pageIt = aggregated_.find(page);
  if (pageIt == aggregated_.end()) return 0;
  const auto& list = pageIt->second;
  const auto it = std::lower_bound(
      list.begin(), list.end(), proxy,
      [](const Notification& n, ProxyId p) { return n.proxy < p; });
  return (it != list.end() && it->proxy == proxy) ? it->matchCount : 0;
}

PSCD_HOT std::vector<Notification> Broker::publish(
    const ContentAttributes& attrs) {
  ++publishCount_;
  // pscd-lint: allow(alloc-in-hot) the notification list escapes to the caller; default construction does not allocate
  std::vector<Notification> out;

  const auto pageIt = aggregated_.find(attrs.page);
  std::span<const Notification> page;
  if (pageIt != aggregated_.end()) page = pageIt->second;

  if (engine_.size() == 0) {
    out.assign(page.begin(), page.end());
  } else {
    const MatchResult m = engine_.match(attrs);
    // Both lists are sorted by proxy, so one two-pointer pass merges
    // them; a proxy on both sides gets the sum of its counts.
    const auto& counts = m.proxyCounts;
    out.reserve(page.size() + counts.size());
    auto a = page.begin();
    auto c = counts.begin();
    while (a != page.end() || c != counts.end()) {
      if (c == counts.end() || (a != page.end() && a->proxy < c->first)) {
        out.push_back(*a++);
      } else if (a == page.end() || c->first < a->proxy) {
        out.push_back({c->first, c->second});
        ++c;
      } else {
        out.push_back({a->proxy, a->matchCount + c->second});
        ++a;
        ++c;
      }
    }
  }

  for (const auto& n : out) notificationCount_ += n.matchCount;
  return out;
}

void Broker::checkInvariants() const {
  engine_.checkInvariants();
  // pscd-lint: allow(unordered-iter) per-page assertions, no output fold
  for (const auto& [page, list] : aggregated_) {
    PSCD_CHECK(!list.empty())
        << "Broker: empty aggregation list kept for page " << page;
    ProxyId prev = 0;
    bool first = true;
    for (const Notification& n : list) {
      PSCD_CHECK_LT(n.proxy, numProxies_)
          << "Broker: aggregated proxy out of range for page " << page;
      PSCD_CHECK_GT(n.matchCount, 0u)
          << "Broker: zero aggregated count kept for page " << page;
      PSCD_CHECK(first || prev < n.proxy)
          << "Broker: aggregation list for page " << page << " unsorted";
      prev = n.proxy;
      first = false;
    }
  }
}

}  // namespace pscd
