// Failure/recovery decision logic, factored out of the event loop: owns
// the residual-connectivity overlay (LinkState) and the per-operation
// loss RNG, applies scheduled fault events to them, and answers the
// engine's fault questions (pushLost, fetchAttemptFails) directly. Pure
// decision code — it never sees the event queue or the simulator
// clock, so the same policy object can back a live deployment's failure
// detector.
//
// Determinism contract (DESIGN.md section 9): the loss RNG is stream 2
// of the fault seed (streams 0/1 feed the proxy/link schedules inside
// buildFaultPlan), and the engine asks pushLost once per notified
// push-capable proxy in ascending proxy order.
#pragma once

#include "pscd/core/fault_plan.h"
#include "pscd/topology/link_state.h"
#include "pscd/util/rng.h"

namespace pscd {

class FaultPolicy {
 public:
  /// `config` must satisfy config.enabled(); the policy starts with
  /// every proxy and link up.
  FaultPolicy(const FaultConfig& config, const Network& network);

  /// Applies one scheduled fault event to the connectivity state. On
  /// kProxyUp the caller also restarts the proxy's strategy, cold or
  /// warm per config().warmRestart.
  void apply(const FaultEvent& event);

  /// True when a push to `proxy` never arrives: always, without a
  /// draw, for a crashed or partitioned proxy; otherwise one Bernoulli
  /// draw at the in-flight loss probability (none when it is 0).
  bool pushLost(ProxyId proxy);

  /// One Bernoulli draw at the fetch failure probability (none when it
  /// is 0); true = this publisher fetch attempt failed.
  bool fetchAttemptFails();

  bool proxyDown(ProxyId proxy) const { return linkState_.proxyDown(proxy); }
  bool pathToPublisher(ProxyId proxy) const {
    return linkState_.pathToPublisher(proxy);
  }

  const FaultConfig& config() const { return config_; }

  /// Normalized cost of the cheapest *residual* publisher path (down
  /// links removed); used to price a fetch under failures.
  double fetchCost(ProxyId proxy) const { return linkState_.fetchCost(proxy); }

  void checkInvariants() const { linkState_.checkInvariants(); }

 private:
  FaultConfig config_;
  LinkState linkState_;
  Rng rng_;
};

}  // namespace pscd
