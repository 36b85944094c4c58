#include "pscd/core/engine.h"

#include <algorithm>
#include <stdexcept>

#include "pscd/core/fault_policy.h"
#include "pscd/util/check.h"
#include "pscd/util/hot.h"

namespace pscd {

ContentDistributionEngine::ContentDistributionEngine(const Network& network,
                                                     EngineConfig config)
    : config_(std::move(config)), broker_(network.numProxies()) {
  if (config_.proxyCapacities.size() != network.numProxies()) {
    throw std::invalid_argument(
        "ContentDistributionEngine: one capacity per proxy required");
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
}

void ContentDistributionEngine::restartProxy(ProxyId proxy, bool warm) {
  if (proxy >= proxies_.size()) {
    throw std::out_of_range("restartProxy: proxy out of range");
  }
  if (warm) return;  // the cache (and all bookkeeping) survives
  proxies_[proxy] = makeStrategy(config_.strategy, strategyParams_[proxy]);
}

const ContentDistributionEngine::PageState&
ContentDistributionEngine::pageState(PageId page) const {
  const std::uint32_t* slot = pageSlot_.find(page);
  if (slot == nullptr) {
    throw std::out_of_range("ContentDistributionEngine: unknown page");
  }
  return pages_[*slot];
}

PSCD_HOT std::uint32_t ContentDistributionEngine::matchCount(
    const PageState& state, ProxyId proxy) const {
  const auto it = std::lower_bound(
      state.matches.begin(), state.matches.end(), proxy,
      [](const Notification& n, ProxyId p) { return n.proxy < p; });
  return (it != state.matches.end() && it->proxy == proxy) ? it->matchCount
                                                           : 0;
}

PSCD_HOT PushDelivery ContentDistributionEngine::publish(
    const PublishEvent& event, const ContentAttributes& attrs,
    FaultPolicy* faults) {
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
    if (faults != nullptr && faults->pushLost(n.proxy)) {
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
  return d;
}

PushDelivery ContentDistributionEngine::publish(const PublishEvent& event,
                                                FaultPolicy* faults) {
  ContentAttributes attrs;
  attrs.page = event.page;
  return publish(event, attrs, faults);
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

PSCD_HOT RequestDelivery ContentDistributionEngine::request(
    ProxyId proxy, PageId page, SimTime now, FaultPolicy* faults) {
  if (proxy >= proxies_.size()) {
    throw std::out_of_range("ContentDistributionEngine: proxy out of range");
  }
  const PageState& state = pageState(page);
  RequestDelivery d;
  d.proxy = proxy;
  d.time = now;

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
    return d;
  }

  if (faults != nullptr) {
    // Probe the cache non-mutatingly: a fresh copy is served locally and
    // no fault can affect it; anything else needs a publisher fetch
    // that may fail.
    const std::optional<Version> cached =
        proxies_[proxy]->cachedVersion(page);
    const bool freshHit = cached.has_value() && *cached == state.version;
    if (!freshHit && !attemptFetch(*faults, proxy, d.retries)) {
      if (cached.has_value()) {
        // Degraded serving: hand out the stale copy rather than fail.
        // The strategy is not consulted — no bookkeeping moves, exactly
        // as if the proxy pinned the bytes it already had.
        d.servedStale = true;
        d.stale = true;
      } else {
        d.unavailable = true;
      }
      return d;
    }
  }

  RequestContext ctx;
  ctx.page = page;
  ctx.latestVersion = state.version;
  ctx.size = state.size;
  ctx.subCount = matchCount(state, proxy);
  ctx.now = now;
  const RequestOutcome out = proxies_[proxy]->onRequest(ctx);

  d.hit = out.hit;
  d.stale = out.stale;
  d.bytesTransferred = out.hit ? 0 : state.size;
  return d;
}

Version ContentDistributionEngine::latestVersion(PageId page) const {
  return pageState(page).version;
}

Bytes ContentDistributionEngine::pageSize(PageId page) const {
  return pageState(page).size;
}

const DistributionStrategy& ContentDistributionEngine::strategy(
    ProxyId proxy) const {
  return *proxies_.at(proxy);
}

DistributionStrategy& ContentDistributionEngine::strategy(ProxyId proxy) {
  return *proxies_.at(proxy);
}

void ContentDistributionEngine::checkInvariants() const {
  broker_.checkInvariants();
  for (std::size_t p = 0; p < proxies_.size(); ++p) {
    proxies_[p]->checkInvariants();
    PSCD_CHECK_LE(proxies_[p]->usedBytes(), proxies_[p]->capacityBytes())
        << "engine: proxy " << p << " strategy over its capacity";
    PSCD_CHECK_EQ(proxies_[p]->capacityBytes(), config_.proxyCapacities[p])
        << "engine: proxy " << p << " capacity drifted from the config";
  }
  PSCD_CHECK_EQ(pageSlot_.size(), pages_.size())
      << "engine: page table and page states disagree";
  for (std::size_t slot = 0; slot < pages_.size(); ++slot) {
    const PageState& state = pages_[slot];
    const PageId page = state.page;
    const std::uint32_t* mapped = pageSlot_.find(page);
    PSCD_CHECK(mapped != nullptr && *mapped == slot)
        << "engine: page table misplaces page " << page;
    PSCD_CHECK_GT(state.size, 0u)
        << "engine: published page " << page << " with zero size";
    for (std::size_t i = 0; i < state.matches.size(); ++i) {
      PSCD_CHECK_LT(state.matches[i].proxy, proxies_.size())
          << "engine: notification for page " << page << " off the overlay";
      PSCD_CHECK(i == 0 ||
                 state.matches[i - 1].proxy < state.matches[i].proxy)
          << "engine: notification list for page " << page << " unsorted";
    }
  }
}

}  // namespace pscd
