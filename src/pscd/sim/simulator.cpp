#include "pscd/sim/simulator.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "pscd/core/latency.h"
#include "pscd/core/runtime.h"
#include "pscd/core/service.h"
#include "pscd/util/check.h"

namespace pscd {

namespace {

// The simulator's half of the core/runtime.h seam: the merge loop below
// owns virtual time (a ManualClock), and delivery records fold into
// SimMetrics. Core code only ever sees the Clock/EventSink interfaces.
class MetricsSink final : public EventSink {
 public:
  explicit MetricsSink(SimMetrics& metrics) : metrics_(metrics) {}

  void onPush(const PushDelivery& d) override { metrics_.recordPush(d); }
  void onRequest(const RequestDelivery& d) override {
    metrics_.recordRequest(d);
  }

 private:
  SimMetrics& metrics_;
};

}  // namespace

Simulator::Simulator(const Workload& workload, const Network& network,
                     const SimConfig& config)
    : workload_(workload), network_(network), config_(config) {
  if (workload.numProxies() != network.numProxies()) {
    throw std::invalid_argument("Simulator: proxy count mismatch");
  }
  if (config.capacityFraction <= 0 || config.capacityFraction > 1) {
    throw std::invalid_argument("Simulator: capacityFraction in (0, 1]");
  }
  // NaN slips through both comparisons above; reject it explicitly.
  PSCD_CHECK(std::isfinite(config.capacityFraction))
      << "Simulator: capacityFraction must be finite";
  LatencyModel{config.localLatencyMs, config.remoteLatencyMsPerUnit}
      .validate();
  PSCD_CHECK(std::isfinite(config.beta))
      << "Simulator: beta must be finite, got " << config.beta;
  const auto checkFraction = [](double value, const char* name) {
    PSCD_CHECK(std::isfinite(value) && value >= 0.0 && value <= 1.0)
        << "Simulator: " << name << " must be in [0, 1], got " << value;
  };
  checkFraction(config.dcInitialPcFraction, "dcInitialPcFraction");
  checkFraction(config.dcMinPcFraction, "dcMinPcFraction");
  checkFraction(config.dcMaxPcFraction, "dcMaxPcFraction");
  // The [min, max] window bounds DC-LAP's adaptive partition only
  // (DualCacheConfig); DC-FP and DC-AP may start anywhere in [0, 1].
  PSCD_CHECK(config.dcMinPcFraction <= config.dcMaxPcFraction)
      << "Simulator: dc pc fractions must satisfy min <= max";
  PSCD_CHECK(config.strategy != StrategyKind::kDCLAP ||
             (config.dcMinPcFraction <= config.dcInitialPcFraction &&
              config.dcInitialPcFraction <= config.dcMaxPcFraction))
      << "Simulator: DC-LAP pc fractions must satisfy min <= initial <= max";
  config.faults.validate();
}

Bytes Simulator::proxyCapacity(ProxyId proxy) const {
  const auto bytes = static_cast<Bytes>(
      std::llround(config_.capacityFraction *
                   static_cast<double>(workload_.uniqueBytesRequested[proxy])));
  // Pages larger than the resulting capacity are simply never cached
  // (as in a real small cache); only guard against a zero-byte cache.
  return std::max<Bytes>(bytes, 1);
}

SimMetrics Simulator::run() {
#ifdef NDEBUG
  const bool selfCheck = config_.selfCheckHourly;
#else
  const bool selfCheck = true;  // debug builds always self-check
#endif
  if (selfCheck) network_.checkInvariants();

  ServiceConfig sc;
  sc.engine.strategy = config_.strategy;
  sc.engine.strategyFactory = config_.strategyFactory;
  sc.engine.beta = config_.beta;
  sc.engine.pushScheme = config_.pushScheme;
  sc.engine.dcInitialPcFraction = config_.dcInitialPcFraction;
  sc.engine.dcMinPcFraction = config_.dcMinPcFraction;
  sc.engine.dcMaxPcFraction = config_.dcMaxPcFraction;
  sc.engine.proxyCapacities.reserve(workload_.numProxies());
  for (ProxyId p = 0; p < workload_.numProxies(); ++p) {
    sc.engine.proxyCapacities.push_back(proxyCapacity(p));
  }
  sc.latency.localLatencyMs = config_.localLatencyMs;
  sc.latency.remoteLatencyMsPerUnit = config_.remoteLatencyMsPerUnit;
  sc.faults = config_.faults;
  sc.faultHorizon = workload_.params.publishing.horizon;

  const std::size_t hours =
      config_.collectHourly
          ? static_cast<std::size_t>(
                std::ceil(workload_.params.publishing.horizon / kHour))
          : 0;
  SimMetrics metrics(workload_.numProxies(), hours);

  ManualClock clock;
  MetricsSink sink(metrics);
  DistributionService service(network_, clock, sink, std::move(sc));

  // Register the aggregated subscriptions (static modulo churn).
  for (PageId page = 0; page < workload_.numPages(); ++page) {
    for (const Notification& n : workload_.subscriptions(page)) {
      service.broker().subscribeAggregated(n.proxy, page, n.matchCount);
    }
  }

  // The scheduled fault timeline (empty when the failure layer is off);
  // each event is handed back to the service at its due time.
  const FaultPlan& plan = service.faultPlan();
  if (selfCheck) plan.checkInvariants(network_);

  // Merge the time-sorted streams (publishes, requests, optional
  // subscription churn, and the fault schedule); publishes win ties so a
  // request issued at publish time sees the fresh version, churn applies
  // before the publishes it should affect, and fault events beat every
  // workload event at the same instant (a crash at time t means the
  // proxy is already down for t's requests).
  std::size_t pi = 0, ri = 0, ci = 0, fi = 0;
  SimTime checkedUpTo = 0.0;  // hour boundary already validated
  const auto maybeCheck = [&](SimTime now) {
    if (selfCheck && now >= checkedUpTo + kHour) {
      // Validate once per simulated hour, however far the clock jumped.
      checkedUpTo += kHour * std::floor((now - checkedUpTo) / kHour);
      service.checkInvariants();
    }
  };
  while (pi < workload_.publishes.size() || ri < workload_.requests.size() ||
         ci < workload_.churn.size()) {
    const SimTime nextPublish = pi < workload_.publishes.size()
                                    ? workload_.publishes[pi].time
                                    : std::numeric_limits<SimTime>::infinity();
    const SimTime nextRequest = ri < workload_.requests.size()
                                    ? workload_.requests[ri].time
                                    : std::numeric_limits<SimTime>::infinity();
    const SimTime nextChurn = ci < workload_.churn.size()
                                  ? workload_.churn[ci].time
                                  : std::numeric_limits<SimTime>::infinity();
    const SimTime nextFault = fi < plan.events.size()
                                  ? plan.events[fi].time
                                  : std::numeric_limits<SimTime>::infinity();
    if (nextFault <= nextChurn && nextFault <= nextPublish &&
        nextFault <= nextRequest) {
      const FaultEvent& ev = plan.events[fi++];
      clock.advance(ev.time);
      service.handleFault(ev);
      maybeCheck(ev.time);
      continue;
    }
    if (nextChurn <= nextPublish && nextChurn <= nextRequest) {
      const SubscriptionChurnEvent& ev = workload_.churn[ci++];
      clock.advance(ev.time);
      service.handleChurn(ev.proxy, ev.fromPage, ev.toPage);
      maybeCheck(ev.time);
      continue;
    }
    if (nextPublish <= nextRequest) {
      const PublishEvent& ev = workload_.publishes[pi++];
      clock.advance(ev.time);
      service.handlePublish(ev);
      maybeCheck(ev.time);
    } else {
      const RequestEvent& ev = workload_.requests[ri++];
      clock.advance(ev.time);
      service.handleRequest(ev.proxy, ev.page);
      maybeCheck(ev.time);
    }
  }
  if (selfCheck) service.checkInvariants();
  return metrics;
}

std::vector<RequestSchedule> buildRequestSchedules(const Workload& workload) {
  std::vector<RequestSchedule> schedules(workload.numProxies());
  for (const RequestEvent& r : workload.requests) {
    schedules[r.proxy].times[r.page].push_back(r.time);
  }
  return schedules;
}

}  // namespace pscd
