// The complete generated workload: publishing stream, request stream and
// static subscription counts, plus the derived per-proxy statistics the
// simulator needs (unique requested bytes for capacity sizing).
#pragma once

#include <span>
#include <vector>

#include "pscd/pubsub/attributes.h"
#include "pscd/pubsub/broker.h"
#include "pscd/util/types.h"
#include "pscd/workload/params.h"

namespace pscd {

/// Static properties of one distinct page.
struct PageInfo {
  Bytes size = 0;
  SimTime firstPublish = 0.0;
  /// 0 when the page is never modified.
  SimTime modificationInterval = 0.0;
  /// Total versions published within the horizon (>= 1).
  std::uint32_t numVersions = 1;
  /// Zipf popularity rank (1 = most popular).
  std::uint32_t popularityRank = 0;
  /// Popularity class 0..3 (0 = most popular; rates drop ~10x per class).
  std::uint8_t popularityClass = 3;
  /// Requests this page receives in the trace.
  std::uint32_t requestCount = 0;
};

/// Most proxies a trace can hold: a request keeps its proxy id in 31
/// bits.
inline constexpr std::uint32_t kMaxProxies = 1u << 31;

struct RequestEvent {
  SimTime time = 0.0;
  PageId page = kInvalidPage;
  ProxyId proxy : 31 = 0;
  /// False for the future-work scenario of readers who never subscribed.
  bool notificationDriven : 1 = true;
};
static_assert(sizeof(RequestEvent) == 16);

/// A user at `proxy` drops one subscription to `fromPage` and subscribes
/// to `toPage` instead (extension: the paper assumes static
/// subscriptions).
struct SubscriptionChurnEvent {
  SimTime time = 0.0;
  ProxyId proxy = 0;
  PageId fromPage = kInvalidPage;
  PageId toPage = kInvalidPage;
};

struct Workload {
  WorkloadParams params;
  std::vector<PageInfo> pages;
  std::vector<PublishEvent> publishes;  // sorted by time
  /// Sorted by (time, page, proxy, notificationDriven).
  std::vector<RequestEvent> requests;

  // Subscription counts in CSR form: row per page, entries sorted by
  // proxy. subOffsets has numPages + 1 elements.
  std::vector<std::uint32_t> subOffsets;
  std::vector<Notification> subEntries;

  /// Subscription churn events, sorted by (time, proxy, fromPage,
  /// toPage) (empty when params.subscription.churnPerDay is 0).
  std::vector<SubscriptionChurnEvent> churn;

  /// Unique bytes requested per proxy over the whole trace; cache
  /// capacities are a percentage of this (section 5.1).
  std::vector<Bytes> uniqueBytesRequested;

  std::uint32_t numPages() const {
    return static_cast<std::uint32_t>(pages.size());
  }
  std::uint32_t numProxies() const { return params.request.numProxies; }

  /// (proxy, count) rows of one page, sorted by proxy.
  std::span<const Notification> subscriptions(PageId page) const;

  /// Matching subscriptions of `page` at `proxy` (0 when none).
  std::uint32_t subscriptionCount(PageId page, ProxyId proxy) const;

  /// Sum of all subscription counts.
  std::uint64_t totalSubscriptions() const;

  /// Internal consistency check (sorted streams, CSR shape, events in
  /// range); throws std::logic_error on violations. Used by tests.
  void validate() const;
};

/// Generates the full workload from the parameters (deterministic in
/// params.seed).
Workload buildWorkload(const WorkloadParams& params);

}  // namespace pscd
