// Discrete-event simulator (section 4, figure 2): merges the publishing
// stream and the request streams in time order and drives one
// DistributionService over them. Proxy cache capacities are a
// fraction of the unique bytes each proxy requests over the whole trace
// (section 5.1).
#pragma once

#include "pscd/cache/oracle_strategy.h"
#include "pscd/core/fault_plan.h"
#include "pscd/core/service.h"
#include "pscd/sim/metrics.h"
#include "pscd/topology/network.h"
#include "pscd/workload/workload.h"

namespace pscd {

struct SimConfig {
  StrategyKind strategy = StrategyKind::kGDStar;
  /// Runs any other strategy (EngineConfig::strategyFactory).
  StrategyFactory strategyFactory;
  double beta = 1.0;
  /// Cache capacity as a fraction of the proxy's unique requested bytes
  /// (the paper evaluates 0.01, 0.05 and 0.10).
  double capacityFraction = 0.05;
  PushScheme pushScheme = PushScheme::kAlwaysPushing;
  /// Collect the hourly series needed by figures 6 and 7.
  bool collectHourly = false;
  double dcInitialPcFraction = 0.5;
  double dcMinPcFraction = 0.25;
  double dcMaxPcFraction = 0.75;
  /// Deep self-check mode (pscd_sim --self-check): validates the network
  /// and fault plan up front and the whole service (broker, matcher,
  /// every strategy) after each simulated hour and at the end of the run.
  /// Debug (!NDEBUG) builds always run these checks.
  bool selfCheckHourly = false;
  /// Latency model for the response-time metric: a hit is served from
  /// the local proxy in localLatency ms; a miss additionally pays the
  /// publisher round trip scaled by the proxy's normalized network
  /// distance (mean distance = 1).
  double localLatencyMs = 5.0;
  double remoteLatencyMsPerUnit = 100.0;
  /// Failure model (DESIGN.md section 9). The default config disables
  /// every failure process, and the simulator then takes the exact
  /// pre-failure-layer code path (bit-identical metrics).
  FaultConfig faults{};
};

class Simulator {
 public:
  /// The workload's proxy count must match the network's.
  Simulator(const Workload& workload, const Network& network,
            const SimConfig& config);

  /// Runs the whole trace and returns the collected metrics. The
  /// service is rebuilt on every call, so run() is repeatable.
  SimMetrics run();

  /// Capacity the given proxy gets under the configured fraction.
  Bytes proxyCapacity(ProxyId proxy) const;

 private:
  const Workload& workload_;
  const Network& network_;
  SimConfig config_;
};

/// Each proxy's request times per page: an OracleStrategy's future.
std::vector<RequestSchedule> buildRequestSchedules(const Workload& workload);

}  // namespace pscd
