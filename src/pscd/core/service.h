// DistributionService: the content delivery engine the paper adds to
// publish/subscribe (figure 1, flow 3'), as one decision object. It
// owns the broker (matching + notification), one distribution strategy
// per proxy, the published-page table, the failure layer (fault plan,
// residual connectivity and loss draws), and the latency model; it
// performs match-time pushing and access-time caching and accounts the
// publisher->proxy traffic.
//
// A driver (the discrete-event simulator, or the wire daemon) advances
// the Clock of core/runtime.h and feeds the service publish/request/
// churn/fault occurrences; each operation's answer is returned and
// also handed to the EventSink. With the failure layer off the service
// makes no fault decision, and all randomness (fault schedules, loss
// draws) derives from config seeds alone, never from driver scheduling:
// the loss draws are stream 2 of the fault seed (streams 0/1 feed the
// schedules inside buildFaultPlan), and a publish asks about its pushes
// in ascending proxy order (DESIGN.md section 9).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "pscd/cache/strategy.h"
#include "pscd/cache/strategy_factory.h"
#include "pscd/core/fault_plan.h"
#include "pscd/core/latency.h"
#include "pscd/core/runtime.h"
#include "pscd/pubsub/broker.h"
#include "pscd/topology/link_state.h"
#include "pscd/topology/network.h"
#include "pscd/util/flat_map.h"
#include "pscd/util/rng.h"
#include "pscd/util/types.h"

namespace pscd {

/// How pushed content travels from the publisher to a proxy (section
/// 5.6). Always-Pushing transfers every matched page; Pushing-When-
/// Necessary first exchanges meta-information and transfers only pages
/// the proxy decides to store.
enum class PushScheme { kAlwaysPushing, kPushingWhenNecessary };

struct EngineConfig {
  StrategyKind strategy = StrategyKind::kGDStar;
  /// When set, builds every proxy's strategy in place of makeStrategy(
  /// strategy, ·), at construction and on each cold restart, so what it
  /// refers to must outlive the service.
  StrategyFactory strategyFactory;
  double beta = 1.0;
  double dcInitialPcFraction = 0.5;
  double dcMinPcFraction = 0.25;
  double dcMaxPcFraction = 0.75;
  PushScheme pushScheme = PushScheme::kAlwaysPushing;
  /// Cache capacity per proxy; must match the network's proxy count.
  std::vector<Bytes> proxyCapacities;
};

struct ServiceConfig {
  EngineConfig engine;
  LatencyModel latency;
  /// Failure model; the default disables every failure process and the
  /// service then builds no fault plan or link state and never draws.
  FaultConfig faults{};
  /// Horizon the stochastic fault schedule is sampled over; ignored
  /// when the failure layer is off.
  SimTime faultHorizon = 0.0;
};

class DistributionService {
 public:
  /// The network defines the proxy count and fetch costs; config.engine
  /// needs one capacity per proxy (std::invalid_argument otherwise).
  /// Validates the latency and fault configs (CheckFailure) and, when
  /// any failure process is enabled, samples the fault plan over
  /// [0, faultHorizon).
  DistributionService(const Network& network, const Clock& clock,
                      EventSink& sink, ServiceConfig config);

  Broker& broker() { return broker_; }
  const Broker& broker() const { return broker_; }

  /// Only perfbench calls this (`service.engine().strategy(p)`); it goes
  /// with the next change to the benchmark.
  const DistributionService& engine() const { return *this; }

  const DistributionStrategy& strategy(ProxyId proxy) const {
    return *proxies_.at(proxy);
  }

  /// The sampled crash/restart and link schedule (empty when the
  /// failure layer is off). The driver merges these events into its
  /// timeline and hands each one back through handleFault().
  const FaultPlan& faultPlan() const { return plan_; }

  /// Applies one scheduled fault event to the connectivity state. On
  /// kProxyUp a cold restart (the default) rebuilds the proxy's
  /// strategy, wiping its cache and bookkeeping; a warm restart
  /// (FaultConfig::warmRestart) keeps it. CheckFailure with the failure
  /// layer off or for a proxy or link off the overlay.
  void handleFault(const FaultEvent& event);

  /// Moves one aggregated subscription between pages.
  void handleChurn(ProxyId proxy, PageId fromPage, PageId toPage);

  /// Publishes a page version: matches it against all subscriptions and
  /// runs the push-time placement at every notified proxy. The answer
  /// is stamped with event.time. A lost push never reaches the proxy;
  /// under Always-Pushing its bytes count as lost. std::invalid_argument
  /// for a zero-size page.
  PushDelivery handlePublish(const PublishEvent& event,
                             const ContentAttributes& attrs);
  /// The same with page-id-only attributes.
  PushDelivery handlePublish(const PublishEvent& event);

  /// A user attached to `proxy` requests `page` at the current Clock
  /// time (std::out_of_range for an unknown proxy or page, checked
  /// before anything else). Under failures a down proxy fails over to a
  /// direct publisher fetch (when allowed and a path exists), a miss
  /// retries failed fetches up to maxRetries, and an abandoned fetch
  /// serves a stale cached copy when one exists (cache state untouched)
  /// and fails otherwise. The answer is priced under the latency model,
  /// plus retry backoff and residual fetch paths under failures.
  RequestDelivery handleRequest(ProxyId proxy, PageId page);

  /// Deep validation of the broker, every proxy strategy, the page
  /// table (positive sizes, notification lists sorted by proxy) and the
  /// connectivity overlay. Throws CheckFailure on any violation.
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

  std::uint32_t matchCount(const PageState& state, ProxyId proxy) const;

  /// True when a push to `proxy` never arrives: always, without a draw,
  /// for a crashed or partitioned proxy; otherwise one Bernoulli draw at
  /// the in-flight loss probability (none when it is 0).
  bool pushLost(ProxyId proxy);
  /// The bounded-retry fetch loop: up to 1 + maxRetries attempts, one
  /// draw at the fetch failure probability each (none when it is 0).
  /// True when some attempt succeeded; `retries` receives the number of
  /// failed attempts before the outcome (maxRetries when all failed).
  bool attemptFetch(ProxyId proxy, std::uint32_t& retries);

  const Clock& clock_;
  EventSink& sink_;
  EngineConfig config_;
  LatencyModel latency_;
  Broker broker_;
  /// Each proxy's strategy parameters, kept so a cold restart can
  /// rebuild it; fetchCost also prices a fault-free fetch.
  std::vector<StrategyParams> strategyParams_;
  std::vector<std::unique_ptr<DistributionStrategy>> proxies_;
  /// One state per page ever published, in first-publish order (pages
  /// are never dropped), found through a table because the ids are
  /// client-chosen 32-bit values.
  std::vector<PageState> pages_;
  FlatMap<std::uint32_t> pageSlot_;  // page -> position in pages_
  FaultConfig faults_;
  FaultPlan plan_;
  /// Residual connectivity (down proxies and links); engaged exactly
  /// when the failure layer is on.
  std::optional<LinkState> linkState_;
  Rng lossRng_;  // push-loss and fetch-failure draws
};

}  // namespace pscd
