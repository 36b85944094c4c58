// DistributionService: the complete decision side of a content
// distribution deployment — engine (matching, push-time placement,
// access-time caching), failure/recovery policy, and latency model —
// behind the narrow Clock/EventSink seam of core/runtime.h. The
// service never sees an event queue: a driver (the discrete-event
// simulator, or a wire daemon) advances the Clock, feeds it
// publish/request/churn/fault occurrences, and gets each operation's
// delivery record back, the same record the EventSink receives.
//
// The contract that keeps results reproducible: with the failure layer
// off the engine is handed no fault policy and makes no fault decision,
// and all randomness (fault schedules, loss draws) derives from config
// seeds alone, never from driver scheduling.
#pragma once

#include <memory>

#include "pscd/core/engine.h"
#include "pscd/core/fault_plan.h"
#include "pscd/core/fault_policy.h"
#include "pscd/core/latency.h"
#include "pscd/core/runtime.h"
#include "pscd/topology/network.h"

namespace pscd {

struct ServiceConfig {
  EngineConfig engine;
  LatencyModel latency;
  /// Failure model; the default disables every failure process and the
  /// service then never constructs a fault plan, link state or RNG.
  FaultConfig faults{};
  /// Horizon the stochastic fault schedule is sampled over; ignored
  /// when the failure layer is off.
  SimTime faultHorizon = 0.0;
  /// Validate the sampled fault plan against the network up front.
  bool validateFaultPlan = false;
};

class DistributionService {
 public:
  /// Validates the latency and fault configs (CheckFailure on bad
  /// parameters), builds the engine, and — when any failure process is
  /// enabled — samples the fault plan over [0, faultHorizon).
  DistributionService(const Network& network, const Clock& clock,
                      EventSink& sink, ServiceConfig config);

  Broker& broker() { return engine_.broker(); }
  ContentDistributionEngine& engine() { return engine_; }
  const ContentDistributionEngine& engine() const { return engine_; }

  bool faultsEnabled() const { return policy_ != nullptr; }

  /// The sampled crash/restart and link schedule (empty when the
  /// failure layer is off). The driver merges these events into its
  /// timeline and hands each one back through handleFault().
  const FaultPlan& faultPlan() const { return plan_; }

  /// Applies one scheduled fault event to the connectivity state and,
  /// on a proxy restart, to the engine.
  void handleFault(const FaultEvent& event);

  /// Moves one aggregated subscription between pages.
  void handleChurn(ProxyId proxy, PageId fromPage, PageId toPage);

  /// Publishes a page version, stamps the answer with the current
  /// Clock time, reports it to the EventSink, and returns it.
  PushDelivery handlePublish(const PublishEvent& event);

  /// Serves one user request at the current Clock time, prices its
  /// response under the latency model (plus retry backoff and residual
  /// fetch paths under failures), reports it to the EventSink, and
  /// returns it. Throws std::out_of_range for an unknown proxy or page.
  RequestDelivery handleRequest(ProxyId proxy, PageId page);

  /// Deep validation of the engine and the connectivity overlay.
  void checkInvariants() const;

 private:
  const Network& network_;
  const Clock& clock_;
  EventSink& sink_;
  LatencyModel latency_;
  ContentDistributionEngine engine_;
  FaultPlan plan_;
  std::unique_ptr<FaultPolicy> policy_;  // null: failure layer off
};

}  // namespace pscd
