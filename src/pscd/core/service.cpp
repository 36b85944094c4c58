#include "pscd/core/service.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "pscd/util/check.h"
#include "pscd/util/hot.h"

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

DistributionService::DistributionService(const Network& network,
                                         const Clock& clock, EventSink& sink,
                                         ServiceConfig config)
    : clock_(clock),
      sink_(sink),
      config_(std::move(config.engine)),
      latency_(config.latency),
      broker_(network.numProxies()),
      faults_(config.faults),
      lossRng_(lossStreamSeed(config.faults.seed)) {
  if (config_.proxyCapacities.size() != network.numProxies()) {
    throw std::invalid_argument(
        "DistributionService: one capacity per proxy required");
  }
  if (!config_.strategyFactory) {
    config_.strategyFactory = [kind = config_.strategy](
                                  ProxyId, const StrategyParams& sp) {
      return makeStrategy(kind, sp);
    };
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
    proxies_.push_back(config_.strategyFactory(p, sp));
  }
  latency_.validate();
  faults_.validate();
  if (faults_.enabled()) {
    plan_ = buildFaultPlan(faults_, network, config.faultHorizon);
    linkState_.emplace(network);
  }
}

void DistributionService::handleFault(const FaultEvent& event) {
  PSCD_CHECK(linkState_.has_value())
      << "DistributionService: fault event with the failure layer off";
  // LinkState range-checks the proxy or link.
  switch (event.kind) {
    case FaultEventKind::kProxyDown:
      linkState_->setProxyDown(event.proxy);
      break;
    case FaultEventKind::kProxyUp:
      linkState_->setProxyUp(event.proxy);
      if (!faults_.warmRestart) {
        proxies_[event.proxy] =
            config_.strategyFactory(event.proxy, strategyParams_[event.proxy]);
      }
      break;
    case FaultEventKind::kLinkDown:
      linkState_->setLinkDown(event.linkA, event.linkB);
      break;
    case FaultEventKind::kLinkUp:
      linkState_->setLinkUp(event.linkA, event.linkB);
      break;
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
    if (linkState_ && pushLost(n.proxy)) {
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

bool DistributionService::pushLost(ProxyId proxy) {
  if (linkState_->proxyDown(proxy) || !linkState_->pathToPublisher(proxy)) {
    return true;
  }
  const double lossP = faults_.pushLossProbability;
  return lossP > 0.0 && lossRng_.bernoulli(lossP);
}

bool DistributionService::attemptFetch(ProxyId proxy,
                                       std::uint32_t& retries) {
  const std::uint32_t maxRetries = faults_.retry.maxRetries;
  if (!linkState_->pathToPublisher(proxy)) {
    // Partitioned: every attempt times out; nothing random to draw.
    retries = maxRetries;
    return false;
  }
  const double failP = faults_.fetchFailureProbability;
  for (retries = 0;; ++retries) {
    if (failP <= 0.0 || !lossRng_.bernoulli(failP)) return true;
    if (retries == maxRetries) return false;
  }
}

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
  const bool faultsOn = linkState_.has_value();

  if (faultsOn && linkState_->proxyDown(proxy)) {
    // The local proxy is crashed: its cache is unusable. Fail over to a
    // direct publisher fetch when allowed, otherwise the request fails.
    if (faults_.publisherFailover && attemptFetch(proxy, d.retries)) {
      d.failover = true;
      d.bytesTransferred = state.size;
    } else {
      d.unavailable = true;
    }
  } else if (faultsOn &&
             proxies_[proxy]->cachedVersion(page) != state.version &&
             !attemptFetch(proxy, d.retries)) {
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
      d.responseTimeMs += faults_.retry.totalBackoffMs(d.retries);
    }
    if (!d.hit && !d.servedStale) {
      const double cost = faultsOn ? linkState_->fetchCost(proxy)
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
  if (linkState_) linkState_->checkInvariants();
}

}  // namespace pscd
