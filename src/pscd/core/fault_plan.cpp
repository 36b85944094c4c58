#include "pscd/core/fault_plan.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>

#include "pscd/topology/network.h"
#include "pscd/util/check.h"
#include "pscd/util/rng.h"

namespace pscd {

double RetryPolicy::backoffMs(std::uint32_t attempt) const {
  return backoffBaseMs * std::pow(backoffFactor, attempt);
}

double RetryPolicy::totalBackoffMs(std::uint32_t attempts) const {
  double total = 0.0;
  for (std::uint32_t k = 0; k < attempts; ++k) total += backoffMs(k);
  return total;
}

void RetryPolicy::validate() const {
  PSCD_CHECK_LE(maxRetries, 64u)
      << "RetryPolicy: maxRetries beyond any sane bound";
  PSCD_CHECK(std::isfinite(backoffBaseMs) && backoffBaseMs >= 0.0)
      << "RetryPolicy: backoffBaseMs must be finite and >= 0, got "
      << backoffBaseMs;
  PSCD_CHECK(std::isfinite(backoffFactor) && backoffFactor >= 1.0)
      << "RetryPolicy: backoffFactor must be finite and >= 1, got "
      << backoffFactor;
}

bool FaultConfig::enabled() const {
  return proxyFailuresPerDay > 0.0 || linkFailuresPerDay > 0.0 ||
         pushLossProbability > 0.0 || fetchFailureProbability > 0.0;
}

void FaultConfig::validate() const {
  const auto checkRate = [](double value, const char* name) {
    PSCD_CHECK(std::isfinite(value) && value >= 0.0)
        << "FaultConfig: " << name << " must be finite and >= 0, got "
        << value;
  };
  const auto checkProb = [](double value, const char* name) {
    PSCD_CHECK(std::isfinite(value) && value >= 0.0 && value <= 1.0)
        << "FaultConfig: " << name << " must be in [0, 1], got " << value;
  };
  checkRate(proxyFailuresPerDay, "proxyFailuresPerDay");
  checkRate(linkFailuresPerDay, "linkFailuresPerDay");
  PSCD_CHECK(std::isfinite(proxyMeanDowntimeHours) &&
             proxyMeanDowntimeHours > 0.0)
      << "FaultConfig: proxyMeanDowntimeHours must be finite and > 0, got "
      << proxyMeanDowntimeHours;
  PSCD_CHECK(std::isfinite(linkMeanDowntimeHours) &&
             linkMeanDowntimeHours > 0.0)
      << "FaultConfig: linkMeanDowntimeHours must be finite and > 0, got "
      << linkMeanDowntimeHours;
  checkProb(pushLossProbability, "pushLossProbability");
  checkProb(fetchFailureProbability, "fetchFailureProbability");
  retry.validate();
}

namespace {

/// Private seed of one failure entity: decorrelated in (stream, index)
/// the same way cellSeed() decorrelates sweep cells, so the
/// plan never depends on the order entities are expanded in.
std::uint64_t entitySeed(std::uint64_t seed, std::uint64_t stream,
                         std::uint64_t index) {
  std::uint64_t state = seed + (stream + 1) * 0x9e3779b97f4a7c15ull;
  splitmix64(state);
  state += (index + 1) * 0xbf58476d1ce4e5b9ull;
  splitmix64(state);
  return splitmix64(state);
}

/// Samples one entity's alternating down/up schedule over [0, horizon)
/// and appends it to `events`. An up event past the horizon is dropped:
/// the entity simply stays failed to the end of the run.
template <typename MakeEvent>
void sampleSchedule(Rng& rng, double failuresPerDay, double meanDowntimeHours,
                    SimTime horizon, std::vector<FaultEvent>& events,
                    MakeEvent&& makeEvent) {
  const double failureRate = failuresPerDay / kDay;        // per second
  const double repairRate = 1.0 / (meanDowntimeHours * kHour);
  SimTime t = 0.0;
  while (true) {
    t += rng.exponential(failureRate);
    if (!(t < horizon)) break;
    events.push_back(makeEvent(t, /*down=*/true));
    const SimTime upAt = t + rng.exponential(repairRate);
    if (upAt < horizon) events.push_back(makeEvent(upAt, /*down=*/false));
    t = upAt;
  }
}

}  // namespace

FaultPlan buildFaultPlan(const FaultConfig& config, const Network& network,
                         SimTime horizon) {
  config.validate();
  PSCD_CHECK(std::isfinite(horizon) && horizon >= 0.0)
      << "buildFaultPlan: horizon must be finite and >= 0, got " << horizon;
  FaultPlan plan;
  if (config.proxyFailuresPerDay > 0.0) {
    for (ProxyId p = 0; p < network.numProxies(); ++p) {
      Rng rng(entitySeed(config.seed, 0, p));
      sampleSchedule(rng, config.proxyFailuresPerDay,
                     config.proxyMeanDowntimeHours, horizon, plan.events,
                     [p](SimTime t, bool down) {
                       FaultEvent ev;
                       ev.time = t;
                       ev.kind = down ? FaultEventKind::kProxyDown
                                      : FaultEventKind::kProxyUp;
                       ev.proxy = p;
                       return ev;
                     });
    }
  }
  if (config.linkFailuresPerDay > 0.0) {
    const Graph& g = network.graph();
    std::uint64_t linkIndex = 0;
    for (NodeId a = 0; a < g.numNodes(); ++a) {
      for (const Graph::Edge& e : g.neighbors(a)) {
        if (e.to <= a) continue;  // each undirected edge once, a < b
        Rng rng(entitySeed(config.seed, 1, linkIndex++));
        sampleSchedule(rng, config.linkFailuresPerDay,
                       config.linkMeanDowntimeHours, horizon, plan.events,
                       [a, b = e.to](SimTime t, bool down) {
                         FaultEvent ev;
                         ev.time = t;
                         ev.kind = down ? FaultEventKind::kLinkDown
                                        : FaultEventKind::kLinkUp;
                         ev.linkA = a;
                         ev.linkB = b;
                         return ev;
                       });
      }
    }
  }
  // Total order: time first, then a full entity tuple so equal-time
  // events still sort deterministically.
  std::sort(plan.events.begin(), plan.events.end(),
            [](const FaultEvent& x, const FaultEvent& y) {
              return std::tie(x.time, x.kind, x.proxy, x.linkA, x.linkB) <
                     std::tie(y.time, y.kind, y.proxy, y.linkA, y.linkB);
            });
  return plan;
}

void FaultPlan::checkInvariants(const Network& network) const {
  SimTime last = 0.0;
  // Entity -> currently down? Keyed so proxies and links cannot collide.
  std::map<std::tuple<bool, NodeId, NodeId>, bool> down;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& ev = events[i];
    PSCD_CHECK(std::isfinite(ev.time) && ev.time >= 0.0)
        << "FaultPlan: event " << i << " has bad time " << ev.time;
    PSCD_CHECK_GE(ev.time, last)
        << "FaultPlan: event " << i << " out of time order";
    last = ev.time;
    const bool isProxy = ev.kind == FaultEventKind::kProxyDown ||
                         ev.kind == FaultEventKind::kProxyUp;
    const bool isDown = ev.kind == FaultEventKind::kProxyDown ||
                        ev.kind == FaultEventKind::kLinkDown;
    std::tuple<bool, NodeId, NodeId> key;
    if (isProxy) {
      PSCD_CHECK_LT(ev.proxy, network.numProxies())
          << "FaultPlan: event " << i << " targets proxy " << ev.proxy
          << " off the overlay";
      key = {true, ev.proxy, 0};
    } else {
      PSCD_CHECK(network.graph().hasEdge(ev.linkA, ev.linkB))
          << "FaultPlan: event " << i << " targets missing link "
          << ev.linkA << " <-> " << ev.linkB;
      PSCD_CHECK_LT(ev.linkA, ev.linkB)
          << "FaultPlan: event " << i << " link endpoints unnormalized";
      key = {false, ev.linkA, ev.linkB};
    }
    bool& state = down[key];  // default: up
    PSCD_CHECK(state != isDown)
        << "FaultPlan: event " << i
        << (isDown ? " fails an already-failed entity"
                   : " restores an already-up entity");
    state = isDown;
  }
}

}  // namespace pscd
