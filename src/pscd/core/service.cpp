#include "pscd/core/service.h"

#include <utility>

#include "pscd/util/check.h"

namespace pscd {

DistributionService::DistributionService(const Network& network,
                                         const Clock& clock, EventSink& sink,
                                         ServiceConfig config)
    : network_(network),
      clock_(clock),
      sink_(sink),
      latency_(config.latency),
      engine_(network, std::move(config.engine)) {
  latency_.validate();
  config.faults.validate();
  if (config.faults.enabled()) {
    plan_ = buildFaultPlan(config.faults, network, config.faultHorizon);
    if (config.validateFaultPlan) plan_.checkInvariants(network);
    policy_ = std::make_unique<FaultPolicy>(config.faults, network);
  }
}

void DistributionService::handleFault(const FaultEvent& event) {
  PSCD_CHECK(policy_ != nullptr)
      << "DistributionService: fault event with the failure layer off";
  policy_->apply(event);
  if (event.kind == FaultEventKind::kProxyUp) {
    engine_.restartProxy(event.proxy, policy_->config().warmRestart);
  }
}

void DistributionService::handleChurn(ProxyId proxy, PageId fromPage,
                                      PageId toPage) {
  engine_.broker().unsubscribeAggregated(proxy, fromPage, 1);
  engine_.broker().subscribeAggregated(proxy, toPage, 1);
}

PushDelivery DistributionService::handlePublish(const PublishEvent& event) {
  PushDelivery d = engine_.publish(event, policy_.get());
  d.time = clock_.now();
  sink_.onPush(d);
  return d;
}

RequestDelivery DistributionService::handleRequest(ProxyId proxy,
                                                   PageId page) {
  RequestDelivery d =
      engine_.request(proxy, page, clock_.now(), policy_.get());
  // A served request pays the local hop, the backoff of every failed
  // fetch attempt, and — when fresh bytes were fetched (a miss or a
  // failover) — the publisher round trip over the residual path. An
  // unavailable request has no response time.
  if (!d.unavailable) {
    d.responseTimeMs = latency_.localLatencyMs;
    if (d.retries > 0) {
      d.responseTimeMs += policy_->config().retry.totalBackoffMs(d.retries);
    }
    if (!d.hit && !d.servedStale) {
      const double cost = policy_ ? policy_->fetchCost(proxy)
                                  : network_.fetchCost(proxy);
      d.responseTimeMs += latency_.remoteLatencyMsPerUnit * cost;
    }
  }
  sink_.onRequest(d);
  return d;
}

void DistributionService::checkInvariants() const {
  engine_.checkInvariants();
  if (policy_) policy_->checkInvariants();
}

}  // namespace pscd
