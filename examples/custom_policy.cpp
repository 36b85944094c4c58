// Extending the library: implement a custom DistributionStrategy and
// race it against the built-ins on a scaled-down news workload.
//
// The custom policy below ("PushLRU") stores every pushed page and every
// missed page and evicts in least-recently-*touched* order — a naive
// push-aware LRU. The example shows the full strategy surface a
// downstream user implements, and how to drive it with the simulator's
// engine replay loop.
//
//   $ ./custom_policy
#include <cstdio>

#include "pscd/pscd.h"

using namespace pscd;

namespace {

/// Push-aware LRU: admission is unconditional (like LRU), pushes count
/// as touches. The pages live in a ValueCache valued by a touch counter,
/// so evictFor() drops the least recently touched page first.
class PushLruStrategy final : public DistributionStrategy {
 public:
  explicit PushLruStrategy(Bytes capacity) : cache_(capacity) {}

  bool pushCapable() const override { return true; }

  PushOutcome onPush(const PushContext& ctx) override {
    if (ctx.size > cache_.capacity()) return {false};
    touch(ctx.page, ctx.version, ctx.size, ctx.now);
    return {true};
  }

  RequestOutcome onRequest(const RequestContext& ctx) override {
    RequestOutcome out;
    const auto* cached = cache_.find(ctx.page);
    if (cached != nullptr && cached->version == ctx.latestVersion) {
      cache_.updateValue(cache_.recordAccess(*cached, ctx.now),
                         static_cast<double>(++ticks_));
      out.hit = true;
      return out;
    }
    out.stale = cached != nullptr;
    if (ctx.size <= cache_.capacity()) {
      touch(ctx.page, ctx.latestVersion, ctx.size, ctx.now);
      out.storedAfterMiss = true;
    }
    return out;
  }

  std::optional<Version> cachedVersion(PageId page) const override {
    const auto* e = cache_.find(page);
    return e ? std::optional<Version>(e->version) : std::nullopt;
  }

  Bytes usedBytes() const override { return cache_.used(); }
  Bytes capacityBytes() const override { return cache_.capacity(); }

 private:
  void touch(PageId page, Version version, Bytes size, SimTime now) {
    cache_.erase(page);
    cache_.evictFor(size);
    CacheEntry e;
    e.page = page;
    e.version = version;
    e.size = size;
    e.lastAccess = now;
    cache_.insertNoEvict(e, static_cast<double>(++ticks_));
  }

  ValueCache cache_;
  std::uint64_t ticks_ = 0;  // touches so far
};

/// Replays a workload against one strategy instance per proxy and
/// returns the global hit ratio — the same loop the Simulator runs,
/// written out for custom strategies.
double replay(const Workload& w,
              const std::function<std::unique_ptr<DistributionStrategy>(
                  Bytes capacity, double fetchCost)>& make,
              const Network& network, double capacityFraction) {
  std::vector<std::unique_ptr<DistributionStrategy>> proxies;
  for (ProxyId p = 0; p < w.numProxies(); ++p) {
    const auto cap = static_cast<Bytes>(
        capacityFraction * static_cast<double>(w.uniqueBytesRequested[p]));
    proxies.push_back(make(std::max<Bytes>(cap, 1), network.fetchCost(p)));
  }
  std::vector<Version> latest(w.numPages(), 0);
  std::uint64_t hits = 0;
  std::size_t pi = 0, ri = 0;
  while (pi < w.publishes.size() || ri < w.requests.size()) {
    const bool takePublish =
        pi < w.publishes.size() &&
        (ri >= w.requests.size() ||
         w.publishes[pi].time <= w.requests[ri].time);
    if (takePublish) {
      const auto& e = w.publishes[pi++];
      latest[e.page] = e.version;
      for (const auto& n : w.subscriptions(e.page)) {
        if (proxies[n.proxy]->pushCapable()) {
          proxies[n.proxy]->onPush(
              {e.page, e.version, e.size, n.matchCount, e.time});
        }
      }
    } else {
      const auto& r = w.requests[ri++];
      hits += proxies[r.proxy]
                  ->onRequest({r.page, latest[r.page],
                               w.pages[r.page].size,
                               w.subscriptionCount(r.page, r.proxy), r.time})
                  .hit;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(w.requests.size());
}

}  // namespace

int main() {
  WorkloadParams params = newsTraceParams();
  params.publishing.numPages = 1500;
  params.publishing.numUpdatedPages = 600;
  params.request.totalRequests = 50000;
  params.request.numProxies = 25;
  const Workload w = buildWorkload(params);
  Rng rng(7);
  const Network network(NetworkParams{.numProxies = 25}, rng);

  std::printf("Scaled-down NEWS workload: %zu requests, %zu publishes, "
              "25 proxies, capacity = 5%%\n\n",
              w.requests.size(), w.publishes.size());

  const double custom = replay(
      w,
      [](Bytes cap, double) { return std::make_unique<PushLruStrategy>(cap); },
      network, 0.05);
  std::printf("  %-8s H = %.1f%%   (custom strategy)\n", "PushLRU",
              100 * custom);

  for (const StrategyKind kind :
       {StrategyKind::kGDStar, StrategyKind::kSUB, StrategyKind::kSG2,
        StrategyKind::kDCLAP}) {
    const double h = replay(
        w,
        [&](Bytes cap, double cost) {
          StrategyParams p;
          p.capacity = cap;
          p.fetchCost = cost;
          p.beta = 2.0;
          return makeStrategy(kind, p);
        },
        network, 0.05);
    std::printf("  %-8s H = %.1f%%\n",
                std::string(strategyName(kind)).c_str(), 100 * h);
  }
  std::printf(
      "\nPushLRU stores everything it sees; the paper's value-based\n"
      "schemes spend the same bytes more carefully.\n");
  return 0;
}
