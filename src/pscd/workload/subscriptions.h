// Subscription generator (section 4.3, eq. 7): given the request trace,
// infer per-(page, proxy) subscription counts from a target subscription
// quality SQ. SQ = 1 reproduces the ideal case where subscriptions
// perfectly reflect accesses; lower SQ over-subscribes (users request
// only a subset of what they subscribe to).
#pragma once

#include <cstdint>
#include <vector>

#include "pscd/pubsub/broker.h"
#include "pscd/util/rng.h"
#include "pscd/workload/params.h"
#include "pscd/workload/workload.h"

namespace pscd {

struct SubscriptionTable {
  /// CSR: row per page, entries sorted by proxy.
  std::vector<std::uint32_t> offsets;  // numPages + 1
  std::vector<Notification> entries;
};

/// Only notification-driven requests contribute to P_{i,j}.
SubscriptionTable generateSubscriptions(const SubscriptionParams& params,
                                        const std::vector<RequestEvent>& requests,
                                        std::uint32_t numPages,
                                        std::uint32_t numProxies, Rng& rng);

/// Generates churn events for params.churnPerDay: each event moves one
/// subscription from a (count-weighted) random existing entry to a
/// popularity-weighted random other page at the same proxy. Events are
/// sorted by (time, proxy, fromPage, toPage). pages[*].popularityRank
/// must be set.
std::vector<SubscriptionChurnEvent> generateSubscriptionChurn(
    const SubscriptionParams& params, const SubscriptionTable& table,
    const std::vector<PageInfo>& pages, double zipfAlpha, SimTime horizon,
    Rng& rng);

}  // namespace pscd
