// Extending the library: implement a custom DistributionStrategy and
// race it against the built-ins on a scaled-down news workload.
//
// The custom policy below ("PushLRU") stores every pushed page and every
// missed page and evicts in least-recently-*touched* order — a naive
// push-aware LRU. The example shows the full strategy surface a
// downstream user implements, and how the Simulator runs it through
// SimConfig::strategyFactory.
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

  SimConfig config;
  config.capacityFraction = 0.05;
  config.strategyFactory = [](ProxyId, const StrategyParams& p) {
    return std::make_unique<PushLruStrategy>(p.capacity);
  };
  std::printf("  %-8s H = %.1f%%   (custom strategy)\n", "PushLRU",
              100 * Simulator(w, network, config).run().hitRatio());

  config.strategyFactory = nullptr;
  config.beta = 2.0;
  for (const StrategyKind kind :
       {StrategyKind::kGDStar, StrategyKind::kSUB, StrategyKind::kSG2,
        StrategyKind::kDCLAP}) {
    config.strategy = kind;
    std::printf("  %-8s H = %.1f%%\n",
                std::string(strategyName(kind)).c_str(),
                100 * Simulator(w, network, config).run().hitRatio());
  }
  std::printf(
      "\nPushLRU stores everything it sees; the paper's value-based\n"
      "schemes spend the same bytes more carefully.\n");
  return 0;
}
