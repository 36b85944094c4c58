// ContentDistributionEngine: the public API tying together the pub/sub
// broker (matching + notification), the overlay network, and one content
// distribution strategy instance per proxy. This is the "content
// delivery engine" the paper adds to the classic publish/subscribe
// architecture (figure 1, flow 3').
//
// Usage: subscribe users (predicate subscriptions or aggregated counts),
// publish pages as they are produced, and route user requests through
// request(). The engine performs match-time pushing and access-time
// caching according to the configured strategy and accounts the traffic
// between publisher and proxies.
#pragma once

#include <memory>
#include <vector>

#include "pscd/cache/strategy.h"
#include "pscd/cache/strategy_factory.h"
#include "pscd/core/runtime.h"
#include "pscd/pubsub/broker.h"
#include "pscd/topology/network.h"
#include "pscd/util/flat_map.h"
#include "pscd/util/types.h"

namespace pscd {

class FaultPolicy;

/// How pushed content travels from the publisher to a proxy (section
/// 5.6). Always-Pushing transfers every matched page; Pushing-When-
/// Necessary first exchanges meta-information and transfers only pages
/// the proxy decides to store.
enum class PushScheme { kAlwaysPushing, kPushingWhenNecessary };

struct EngineConfig {
  StrategyKind strategy = StrategyKind::kGDStar;
  double beta = 1.0;
  double dcInitialPcFraction = 0.5;
  double dcMinPcFraction = 0.25;
  double dcMaxPcFraction = 0.75;
  PushScheme pushScheme = PushScheme::kAlwaysPushing;
  /// Cache capacity per proxy; must match the network's proxy count.
  std::vector<Bytes> proxyCapacities;
};

class ContentDistributionEngine {
 public:
  /// The network defines the proxy count and fetch costs; capacities in
  /// config must have one entry per proxy.
  ContentDistributionEngine(const Network& network, EngineConfig config);

  Broker& broker() { return broker_; }
  const Broker& broker() const { return broker_; }

  std::uint32_t numProxies() const {
    return static_cast<std::uint32_t>(proxies_.size());
  }

  /// Publishes a page version: matches it against all subscriptions and
  /// runs the push-time placement at every notified proxy. The answer
  /// is stamped with event.time. With `faults`, pushes it reports lost
  /// never reach the proxy (no store, no transfer; under Always-Pushing
  /// the wasted publisher->proxy bytes are accounted as lost).
  PushDelivery publish(const PublishEvent& event,
                       const ContentAttributes& attrs,
                       FaultPolicy* faults = nullptr);

  /// Convenience overload using page-id-only attributes.
  PushDelivery publish(const PublishEvent& event,
                       FaultPolicy* faults = nullptr);

  /// A user attached to `proxy` requests `page`. The proxy must be in
  /// range and the page published before (std::out_of_range otherwise,
  /// checked before anything else). responseTimeMs is left 0 for the
  /// caller to price.
  ///
  /// With `faults`, the failure-recovery path runs: a down proxy fails
  /// over to a direct publisher fetch (when allowed and a path exists);
  /// a miss retries failed fetches up to the policy's maxRetries; an
  /// abandoned fetch serves a stale cached copy when one exists
  /// (degraded, cache state untouched) and fails otherwise. Without
  /// `faults` the behaviour is bit-identical to the pre-failure-layer
  /// engine.
  RequestDelivery request(ProxyId proxy, PageId page, SimTime now,
                          FaultPolicy* faults = nullptr);

  /// Crash/restart model: a cold restart (warm = false) replaces the
  /// proxy's strategy with a freshly constructed one, wiping the cache
  /// and all bookkeeping (L, access history, dual-cache partition); a
  /// warm restart keeps the strategy untouched.
  void restartProxy(ProxyId proxy, bool warm);

  /// Latest published version/size of a page; throws if never published.
  Version latestVersion(PageId page) const;
  Bytes pageSize(PageId page) const;

  const DistributionStrategy& strategy(ProxyId proxy) const;
  DistributionStrategy& strategy(ProxyId proxy);

  /// Deep validation: broker/matcher invariants, every proxy strategy's
  /// internal invariants, and the published-page table (positive sizes,
  /// per-page notification lists sorted by proxy). Throws CheckFailure
  /// on any violation.
  void checkInvariants() const;

 private:
  struct PageState {
    PageId page = 0;
    Version version = 0;
    Bytes size = 0;
    /// Match counts from the page's most recent publish, sorted by
    /// proxy; consulted at request time for the subscription factor.
    /// Each publish refills it in place, reusing its capacity.
    std::vector<Notification> matches;
  };

  const PageState& pageState(PageId page) const;
  std::uint32_t matchCount(const PageState& state, ProxyId proxy) const;

  EngineConfig config_;
  Broker broker_;
  /// Construction parameters of each proxy's strategy, kept so a cold
  /// restart can rebuild it from scratch.
  std::vector<StrategyParams> strategyParams_;
  std::vector<std::unique_ptr<DistributionStrategy>> proxies_;
  /// One state per page ever published, in first-publish order (pages
  /// are never dropped), found through a table because the ids are
  /// client-chosen 32-bit values.
  std::vector<PageState> pages_;
  FlatMap<std::uint32_t> pageSlot_;  // page -> position in pages_
};

}  // namespace pscd
