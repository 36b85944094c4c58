#include "pscd/pubsub/broker.h"

#include <algorithm>
#include <limits>
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

PSCD_HOT const std::vector<Notification>* Broker::aggregatedList(
    PageId page) const {
  const std::uint32_t* slot = aggregatedSlot_.find(page);
  return slot == nullptr ? nullptr : &aggregated_[*slot].list;
}

PSCD_HOT void Broker::subscribeAggregated(ProxyId proxy, PageId page,
                                          std::uint32_t count) {
  if (proxy >= numProxies_) {
    throw std::out_of_range("Broker::subscribeAggregated: proxy out of range");
  }
  if (count == 0) return;
  const auto [slot, added] = aggregatedSlot_.tryEmplace(page);
  if (added) {
    *slot = static_cast<std::uint32_t>(aggregated_.size());
    aggregated_.push_back({page, {}});
  }
  auto& list = aggregated_[*slot].list;
  const auto it = std::lower_bound(
      list.begin(), list.end(), proxy,
      [](const Notification& n, ProxyId p) { return n.proxy < p; });
  if (it != list.end() && it->proxy == proxy) {
    if (count > std::numeric_limits<std::uint32_t>::max() - it->matchCount) {
      throw std::overflow_error(
          "Broker::subscribeAggregated: count would pass UINT32_MAX");
    }
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
  const std::uint32_t* slot = aggregatedSlot_.find(page);
  if (slot == nullptr) return 0;
  const std::uint32_t at = *slot;
  auto& list = aggregated_[at].list;
  const auto it = std::lower_bound(
      list.begin(), list.end(), proxy,
      [](const Notification& n, ProxyId p) { return n.proxy < p; });
  if (it == list.end() || it->proxy != proxy) return 0;
  const std::uint32_t removed = std::min(count, it->matchCount);
  it->matchCount -= removed;
  if (it->matchCount == 0) list.erase(it);
  // Drop the page entry entirely once its list drains so churn-heavy
  // workloads do not accumulate empty lists; the last page fills the gap.
  if (list.empty()) {
    aggregatedSlot_.erase(page);
    if (at + 1 != aggregated_.size()) {
      aggregated_[at] = std::move(aggregated_.back());
      *aggregatedSlot_.find(aggregated_[at].page) = at;
    }
    aggregated_.pop_back();
  }
  return removed;
}

PSCD_HOT std::uint32_t Broker::aggregatedCount(ProxyId proxy,
                                               PageId page) const {
  const std::vector<Notification>* list = aggregatedList(page);
  if (list == nullptr) return 0;
  const auto it = std::lower_bound(
      list->begin(), list->end(), proxy,
      [](const Notification& n, ProxyId p) { return n.proxy < p; });
  return (it != list->end() && it->proxy == proxy) ? it->matchCount : 0;
}

std::vector<Notification> Broker::publish(const ContentAttributes& attrs) {
  std::vector<Notification> out;
  publish(attrs, out);
  return out;
}

PSCD_HOT void Broker::publish(const ContentAttributes& attrs,
                              std::vector<Notification>& out) {
  ++publishCount_;
  out.clear();

  std::span<const Notification> page;
  if (const auto* list = aggregatedList(attrs.page)) page = *list;

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
}

void Broker::checkInvariants() const {
  engine_.checkInvariants();
  PSCD_CHECK_EQ(aggregatedSlot_.size(), aggregated_.size())
      << "Broker: aggregation table and lists disagree";
  for (std::size_t slot = 0; slot < aggregated_.size(); ++slot) {
    const auto& [page, list] = aggregated_[slot];
    const std::uint32_t* mapped = aggregatedSlot_.find(page);
    PSCD_CHECK(mapped != nullptr && *mapped == slot)
        << "Broker: aggregation table misplaces page " << page;
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
