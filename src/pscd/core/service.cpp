#include "pscd/core/service.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "pscd/util/check.h"
#include "pscd/util/hot.h"

namespace pscd {

DistributionService::DistributionService(const Network& network,
                                         const Clock& clock, EventSink& sink,
                                         ServiceConfig config)
    : clock_(clock),
      sink_(sink),
      config_(std::move(config.engine)),
      latency_(config.latency),
      broker_(network.numProxies()) {
  if (config_.proxyCapacities.size() != network.numProxies()) {
    throw std::invalid_argument(
        "DistributionService: one capacity per proxy required");
  }
  strategyParams_.reserve(network.numProxies());
  proxies_.reserve(network.numProxies());
  for (ProxyId p = 0; p < network.numProxies(); ++p) {
    StrategyParams sp;
    sp.capacity = config_.proxyCapacities[p];
    sp.fetchCost = network.fetchCost(p);
    sp.beta = config_.beta;
    sp.dcInitialPcFraction = config_.dcInitialPcFraction;
    sp.dcMinPcFraction = config_.dcMinPcFraction;
    sp.dcMaxPcFraction = config_.dcMaxPcFraction;
    strategyParams_.push_back(sp);
    proxies_.push_back(makeStrategy(config_.strategy, sp));
  }
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
  policy_->apply(event);  // range-checks the proxy or link
  if (event.kind == FaultEventKind::kProxyUp &&
      !policy_->config().warmRestart) {
    proxies_[event.proxy] =
        makeStrategy(config_.strategy, strategyParams_[event.proxy]);
  }
}

void DistributionService::handleChurn(ProxyId proxy, PageId fromPage,
                                      PageId toPage) {
  broker_.unsubscribeAggregated(proxy, fromPage, 1);
  broker_.subscribeAggregated(proxy, toPage, 1);
}

PSCD_HOT std::uint32_t DistributionService::matchCount(
    const PageState& state, ProxyId proxy) const {
  const auto it = std::lower_bound(
      state.matches.begin(), state.matches.end(), proxy,
      [](const Notification& n, ProxyId p) { return n.proxy < p; });
  return (it != state.matches.end() && it->proxy == proxy) ? it->matchCount
                                                           : 0;
}

PSCD_HOT PushDelivery DistributionService::handlePublish(
    const PublishEvent& event, const ContentAttributes& attrs) {
  if (event.size == 0) {
    throw std::invalid_argument("publish: page size must be > 0");
  }
  const auto [slot, added] = pageSlot_.tryEmplace(event.page);
  if (added) {
    *slot = static_cast<std::uint32_t>(pages_.size());
    pages_.emplace_back().page = event.page;
  }
  PageState& state = pages_[*slot];
  state.version = event.version;
  state.size = event.size;
  broker_.publish(attrs, state.matches);

  PushDelivery d;
  d.time = event.time;
  d.proxiesNotified = static_cast<std::uint32_t>(state.matches.size());
  for (const Notification& n : state.matches) {
    DistributionStrategy& strat = *proxies_[n.proxy];
    if (!strat.pushCapable()) continue;
    if (policy_ != nullptr && policy_->pushLost(n.proxy)) {
      // The push never reaches the proxy. Under Always-Pushing the
      // publisher sent the bytes anyway (wasted transfer, accounted as
      // lost); under Pushing-When-Necessary the meta-exchange already
      // failed, so nothing was sent.
      if (config_.pushScheme == PushScheme::kAlwaysPushing) {
        ++d.pagesLost;
        d.bytesLost += event.size;
      }
      continue;
    }
    PushContext ctx;
    ctx.page = event.page;
    ctx.version = event.version;
    ctx.size = event.size;
    ctx.subCount = n.matchCount;
    ctx.now = event.time;
    const PushOutcome out = strat.onPush(ctx);
    if (out.stored) ++d.proxiesStored;
    // Always-Pushing transfers the page to every notified proxy;
    // Pushing-When-Necessary transfers only when the proxy stores it.
    const bool transferred =
        config_.pushScheme == PushScheme::kAlwaysPushing || out.stored;
    if (transferred) {
      ++d.pages;
      d.bytes += event.size;
    }
  }
  sink_.onPush(d);
  return d;
}

PushDelivery DistributionService::handlePublish(const PublishEvent& event) {
  ContentAttributes attrs;
  attrs.page = event.page;
  return handlePublish(event, attrs);
}

namespace {

/// Runs the bounded-retry fetch loop: up to 1 + maxRetries attempts,
/// one fault draw each. Returns true when some attempt succeeded;
/// `retries` receives the number of failed attempts before the outcome
/// (maxRetries when every attempt failed).
bool attemptFetch(FaultPolicy& faults, ProxyId proxy,
                  std::uint32_t& retries) {
  const std::uint32_t maxRetries = faults.config().retry.maxRetries;
  if (!faults.pathToPublisher(proxy)) {
    // Partitioned: every attempt times out; nothing random to draw.
    retries = maxRetries;
    return false;
  }
  for (retries = 0;; ++retries) {
    if (!faults.fetchAttemptFails()) return true;
    if (retries == maxRetries) return false;
  }
}

}  // namespace

PSCD_HOT RequestDelivery DistributionService::handleRequest(ProxyId proxy,
                                                            PageId page) {
  if (proxy >= proxies_.size()) {
    throw std::out_of_range("DistributionService: proxy out of range");
  }
  const std::uint32_t* slot = pageSlot_.find(page);
  if (slot == nullptr) {
    throw std::out_of_range("DistributionService: unknown page");
  }
  const PageState& state = pages_[*slot];
  RequestDelivery d;
  d.proxy = proxy;
  d.time = clock_.now();
  FaultPolicy* const faults = policy_.get();

  if (faults != nullptr && faults->proxyDown(proxy)) {
    // The local proxy is crashed: its cache is unusable. Fail over to a
    // direct publisher fetch when allowed, otherwise the request fails.
    if (faults->config().publisherFailover &&
        attemptFetch(*faults, proxy, d.retries)) {
      d.failover = true;
      d.bytesTransferred = state.size;
    } else {
      d.unavailable = true;
    }
  } else if (faults != nullptr &&
             proxies_[proxy]->cachedVersion(page) != state.version &&
             !attemptFetch(*faults, proxy, d.retries)) {
    // Anything but a fresh copy needs a publisher fetch, and every
    // attempt failed. Degraded serving hands out a stale copy rather
    // than fail; the strategy is not consulted — no bookkeeping moves,
    // exactly as if the proxy pinned the bytes it already had.
    if (proxies_[proxy]->cachedVersion(page).has_value()) {
      d.servedStale = true;
      d.stale = true;
    } else {
      d.unavailable = true;
    }
  } else {
    RequestContext ctx;
    ctx.page = page;
    ctx.latestVersion = state.version;
    ctx.size = state.size;
    ctx.subCount = matchCount(state, proxy);
    ctx.now = d.time;
    const RequestOutcome out = proxies_[proxy]->onRequest(ctx);
    d.hit = out.hit;
    d.stale = out.stale;
    d.bytesTransferred = out.hit ? 0 : state.size;
  }

  // A served request pays the local hop, the backoff of every failed
  // fetch attempt, and — when fresh bytes were fetched (a miss or a
  // failover) — the publisher round trip over the residual path. An
  // unavailable request has no response time.
  if (!d.unavailable) {
    d.responseTimeMs = latency_.localLatencyMs;
    if (d.retries > 0) {
      d.responseTimeMs += faults->config().retry.totalBackoffMs(d.retries);
    }
    if (!d.hit && !d.servedStale) {
      const double cost = faults != nullptr
                              ? faults->fetchCost(proxy)
                              : strategyParams_[proxy].fetchCost;
      d.responseTimeMs += latency_.remoteLatencyMsPerUnit * cost;
    }
  }
  sink_.onRequest(d);
  return d;
}

void DistributionService::checkInvariants() const {
  broker_.checkInvariants();
  for (std::size_t p = 0; p < proxies_.size(); ++p) {
    proxies_[p]->checkInvariants();
    PSCD_CHECK_LE(proxies_[p]->usedBytes(), proxies_[p]->capacityBytes())
        << "service: proxy " << p << " strategy over its capacity";
    PSCD_CHECK_EQ(proxies_[p]->capacityBytes(), config_.proxyCapacities[p])
        << "service: proxy " << p << " capacity drifted from the config";
  }
  PSCD_CHECK_EQ(pageSlot_.size(), pages_.size())
      << "service: page table and page states disagree";
  for (std::size_t slot = 0; slot < pages_.size(); ++slot) {
    const PageState& state = pages_[slot];
    const PageId page = state.page;
    const std::uint32_t* mapped = pageSlot_.find(page);
    PSCD_CHECK(mapped != nullptr && *mapped == slot)
        << "service: page table misplaces page " << page;
    PSCD_CHECK_GT(state.size, 0u)
        << "service: published page " << page << " with zero size";
    for (std::size_t i = 0; i < state.matches.size(); ++i) {
      PSCD_CHECK_LT(state.matches[i].proxy, proxies_.size())
          << "service: notification for page " << page << " off the overlay";
      PSCD_CHECK(i == 0 ||
                 state.matches[i - 1].proxy < state.matches[i].proxy)
          << "service: notification list for page " << page << " unsorted";
    }
  }
  if (policy_) policy_->checkInvariants();
}

}  // namespace pscd
