#include "pscd/core/fault_policy.h"

namespace pscd {

namespace {

// Stream 2 of the fault seed; streams 0/1 feed the proxy/link
// schedules in buildFaultPlan. Must match the historical simulator
// derivation bit for bit.
std::uint64_t lossStreamSeed(std::uint64_t seed) {
  std::uint64_t s = seed + 3 * 0x9e3779b97f4a7c15ull;
  splitmix64(s);
  return splitmix64(s);
}

}  // namespace

FaultPolicy::FaultPolicy(const FaultConfig& config, const Network& network)
    : config_(config),
      linkState_(network),
      rng_(lossStreamSeed(config.seed)) {}

void FaultPolicy::apply(const FaultEvent& event) {
  switch (event.kind) {
    case FaultEventKind::kProxyDown:
      linkState_.setProxyDown(event.proxy);
      break;
    case FaultEventKind::kProxyUp:
      linkState_.setProxyUp(event.proxy);
      break;
    case FaultEventKind::kLinkDown:
      linkState_.setLinkDown(event.linkA, event.linkB);
      break;
    case FaultEventKind::kLinkUp:
      linkState_.setLinkUp(event.linkA, event.linkB);
      break;
  }
}

bool FaultPolicy::pushLost(ProxyId proxy) {
  if (linkState_.proxyDown(proxy) || !linkState_.pathToPublisher(proxy)) {
    return true;
  }
  const double lossP = config_.pushLossProbability;
  return lossP > 0.0 && rng_.bernoulli(lossP);
}

bool FaultPolicy::fetchAttemptFails() {
  const double failP = config_.fetchFailureProbability;
  return failP > 0.0 && rng_.bernoulli(failP);
}

}  // namespace pscd
