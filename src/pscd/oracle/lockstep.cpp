#include "pscd/oracle/lockstep.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "pscd/oracle/reference_covering.h"
#include "pscd/oracle/reference_matcher.h"
#include "pscd/oracle/reference_paths.h"
#include "pscd/topology/shortest_path.h"
#include "pscd/util/rng.h"
#include "pscd/util/run_all.h"

namespace pscd {

namespace {

constexpr std::size_t kInvariantEvery = 64;

/// Runs `step(i)` for every step, converting the first non-empty
/// mismatch description — or any escaped exception, e.g. a CheckFailure
/// from a production invariant validator — into a replayable report.
template <typename StepFn>
LockstepReport runSteps(std::uint64_t seed, std::size_t steps,
                        StepFn&& step) {
  LockstepReport report;
  report.seed = seed;
  for (std::size_t i = 0; i < steps; ++i) {
    report.stepsRun = i + 1;
    try {
      std::string what = step(i);
      if (!what.empty()) {
        report.diverged = true;
        report.step = i;
        report.what = std::move(what);
        return report;
      }
    } catch (const std::exception& e) {
      report.diverged = true;
      report.step = i;
      report.what = std::string("exception: ") + e.what();
      return report;
    }
  }
  return report;
}

std::string describeIds(const std::vector<SubscriptionId>& got,
                        const std::vector<SubscriptionId>& want) {
  std::ostringstream os;
  os << "got {";
  for (const auto id : got) os << ' ' << id;
  os << " } want {";
  for (const auto id : want) os << ' ' << id;
  os << " }";
  return os.str();
}

}  // namespace

std::string toString(const LockstepReport& report) {
  std::ostringstream os;
  if (!report.diverged) {
    os << "lockstep ok after " << report.stepsRun << " steps (seed="
       << report.seed << ")";
  } else {
    os << "lockstep diverged at seed=" << report.seed << " step="
       << report.step << ": " << report.what
       << " — replay with the same config and this seed; the step index "
          "identifies the first mismatching operation";
  }
  return os.str();
}

// ------------------------------------------------------------ matcher --

LockstepReport runMatcherLockstep(const MatcherLockstepConfig& config) {
  Rng rng(config.seed);
  MatchingEngine prod;
  ReferenceMatcher ref;
  std::vector<SubscriptionId> ids;  // every id ever issued

  auto randomSubscription = [&] {
    Subscription sub;
    sub.proxy = static_cast<ProxyId>(rng.uniformInt(config.numProxies));
    const std::uint64_t n = 1 + rng.uniformInt(3);
    for (std::uint64_t i = 0; i < n; ++i) {
      Predicate p;
      switch (rng.uniformInt(3)) {
        case 0:
          p.kind = Predicate::Kind::kPageIdEq;
          p.value = static_cast<std::uint32_t>(
              rng.uniformInt(config.numPages));
          break;
        case 1:
          p.kind = Predicate::Kind::kCategoryEq;
          p.value = static_cast<std::uint32_t>(
              rng.uniformInt(config.numCategories));
          break;
        default:
          p.kind = Predicate::Kind::kKeywordContains;
          p.value = static_cast<std::uint32_t>(
              rng.uniformInt(config.numKeywords));
          break;
      }
      sub.conjuncts.push_back(p);  // duplicates are deliberate
    }
    return sub;
  };

  return runSteps(config.seed, config.steps, [&](std::size_t step) {
    if (step == config.sabotageStep && config.sabotage) {
      config.sabotage(prod);
    }
    const double roll = rng.uniform();
    if (roll < 0.60 - config.removeShare || ids.empty()) {
      const Subscription sub = randomSubscription();
      const SubscriptionId got = prod.addSubscription(sub);
      const SubscriptionId want = ref.addSubscription(sub);
      if (got != want) {
        std::ostringstream os;
        os << "addSubscription id mismatch: got " << got << " want "
           << want;
        return os.str();
      }
      ids.push_back(got);
    } else if (roll < 0.60) {
      // May target an already-removed id: both sides must refuse.
      const SubscriptionId id = ids[rng.uniformInt(ids.size())];
      const bool got = prod.removeSubscription(id);
      const bool want = ref.removeSubscription(id);
      if (got != want) {
        std::ostringstream os;
        os << "removeSubscription(" << id << ") mismatch: got " << got
           << " want " << want;
        return os.str();
      }
    } else {
      ContentAttributes attrs;
      attrs.page = static_cast<PageId>(rng.uniformInt(config.numPages));
      attrs.category =
          static_cast<std::uint32_t>(rng.uniformInt(config.numCategories));
      const std::uint64_t nkw = rng.uniformInt(5);
      for (std::uint64_t i = 0; i < nkw; ++i) {
        // Duplicate keywords are deliberate: they must not advance a
        // subscription's conjunct counter twice.
        attrs.keywords.push_back(
            static_cast<std::uint32_t>(rng.uniformInt(config.numKeywords)));
      }
      MatchResult got = prod.match(attrs);
      const MatchResult want = ref.match(attrs);
      // The production engine reports ids in index-scan order; compare
      // as sets.
      std::sort(got.subscriptions.begin(), got.subscriptions.end());
      if (got.subscriptions != want.subscriptions) {
        return "match subscription set mismatch: " +
               describeIds(got.subscriptions, want.subscriptions);
      }
      if (got.proxyCounts != want.proxyCounts) {
        return std::string("match proxyCounts mismatch");
      }
    }
    if (prod.size() != ref.size()) {
      std::ostringstream os;
      os << "live-count mismatch: got " << prod.size() << " want "
         << ref.size();
      return os.str();
    }
    if (step % kInvariantEvery == 0) prod.checkInvariants();
    return std::string();
  });
}

// ----------------------------------------------------------- covering --

namespace {

/// Canonical view of a member set: (proxy, normalized conjuncts) rows,
/// sorted, so production and reference member order is irrelevant.
std::vector<std::pair<ProxyId, std::vector<Predicate>>> canonicalMembers(
    const std::vector<Subscription>& members) {
  std::vector<std::pair<ProxyId, std::vector<Predicate>>> rows;
  rows.reserve(members.size());
  for (const Subscription& m : members) {
    rows.emplace_back(m.proxy, normalizeConjuncts(m.conjuncts));
  }
  auto predKey = [](const Predicate& p) {
    return (static_cast<std::uint64_t>(p.kind) << 32) | p.value;
  };
  std::sort(rows.begin(), rows.end(), [&](const auto& a, const auto& b) {
    // pscd-lint: allow(float-compare) comparator tie-break on exact values
    if (a.first != b.first) return a.first < b.first;
    return std::lexicographical_compare(
        a.second.begin(), a.second.end(), b.second.begin(), b.second.end(),
        [&](const Predicate& x, const Predicate& y) {
          return predKey(x) < predKey(y);
        });
  });
  return rows;
}

}  // namespace

LockstepReport runCoveringLockstep(const CoveringLockstepConfig& config) {
  Rng rng(config.seed);
  CoveringSet prod;
  ReferenceCoveringSet ref;

  auto randomSubscription = [&] {
    Subscription sub;
    sub.proxy = static_cast<ProxyId>(rng.uniformInt(4));
    const std::uint64_t n = 1 + rng.uniformInt(3);
    for (std::uint64_t i = 0; i < n; ++i) {
      Predicate p;
      switch (rng.uniformInt(3)) {
        case 0:
          p.kind = Predicate::Kind::kPageIdEq;
          p.value = static_cast<std::uint32_t>(rng.uniformInt(2));
          break;
        case 1:
          p.kind = Predicate::Kind::kCategoryEq;
          p.value = static_cast<std::uint32_t>(
              rng.uniformInt(config.numCategories));
          break;
        default:
          p.kind = Predicate::Kind::kKeywordContains;
          p.value = static_cast<std::uint32_t>(
              rng.uniformInt(config.numKeywords));
          break;
      }
      sub.conjuncts.push_back(p);
    }
    return sub;
  };

  return runSteps(config.seed, config.steps, [&](std::size_t step) {
    if (step == config.sabotageStep && config.sabotage) {
      config.sabotage(prod);
    }
    const double roll = rng.uniform();
    if (roll < 0.55) {
      const Subscription sub = randomSubscription();
      const bool got = prod.add(sub);
      const bool want = ref.add(sub);
      if (got != want) {
        return "add(" + pscd::toString(sub) + ") mismatch: got " +
               (got ? "extended" : "absorbed") + " want " +
               (want ? "extended" : "absorbed");
      }
    } else if (roll < 0.80) {
      const Subscription sub = randomSubscription();
      const bool got = prod.isCovered(sub);
      const bool want = ref.isCovered(sub);
      if (got != want) {
        return "isCovered(" + pscd::toString(sub) + ") mismatch";
      }
    } else {
      ContentAttributes attrs;
      attrs.page = static_cast<PageId>(rng.uniformInt(2));
      attrs.category =
          static_cast<std::uint32_t>(rng.uniformInt(config.numCategories));
      const std::uint64_t nkw = rng.uniformInt(4);
      for (std::uint64_t i = 0; i < nkw; ++i) {
        attrs.keywords.push_back(
            static_cast<std::uint32_t>(rng.uniformInt(config.numKeywords)));
      }
      if (prod.matches(attrs) != ref.matches(attrs)) {
        return std::string("matches(attrs) mismatch");
      }
    }
    if (prod.size() != ref.size()) {
      std::ostringstream os;
      os << "frontier size mismatch: got " << prod.size() << " want "
         << ref.size();
      return os.str();
    }
    if (canonicalMembers(prod.members()) != canonicalMembers(ref.members())) {
      return std::string("frontier member sets differ");
    }
    return std::string();
  });
}

// -------------------------------------------------------------- cache --

LockstepReport runCacheLockstep(const CacheLockstepConfig& config) {
  Rng rng(config.seed);
  auto prod = config.makeProduction();
  auto ref = config.makeReference();

  struct PageState {
    Bytes size = 1;
    std::uint32_t nextVersion = 0;
    std::uint32_t subCount = 0;
  };
  std::vector<PageState> pages(config.numPages);
  const Bytes sizeSpan = config.maxPageSize - config.minPageSize + 1;
  for (PageState& p : pages) {
    p.size = config.minPageSize + rng.uniformInt(sizeSpan);
    // A quarter of the pages have no local subscribers: they are never
    // pushed and exercise the subCount==0 corners of the value formulas.
    p.subCount = rng.uniform() < 0.25
                     ? 0
                     : 1 + static_cast<std::uint32_t>(rng.uniformInt(6));
  }
  pages.front().subCount = 1;  // at least one pushable page

  SimTime now = 0.0;

  return runSteps(config.seed, config.steps, [&](std::size_t step) {
    if (step == config.sabotageStep && config.sabotage) {
      config.sabotage(*prod);
    }
    now += rng.exponential(1.0);
    const bool doPush =
        prod->pushCapable() && rng.uniform() < config.pushProbability;
    PageId page = static_cast<PageId>(rng.uniformInt(config.numPages));
    std::ostringstream os;
    if (doPush) {
      while (pages[page].subCount == 0) {
        page = static_cast<PageId>(rng.uniformInt(config.numPages));
      }
      PageState& state = pages[page];
      if (state.nextVersion > 0 && rng.uniform() < 0.3) {
        // A modified version may change the page's size.
        state.size = config.minPageSize + rng.uniformInt(sizeSpan);
      }
      PushContext ctx;
      ctx.page = page;
      ctx.version = state.nextVersion++;
      ctx.size = state.size;
      ctx.subCount = state.subCount;
      ctx.now = now;
      const PushOutcome got = prod->onPush(ctx);
      const PushOutcome want = ref->onPush(ctx);
      if (got.stored != want.stored) {
        os << "onPush(page=" << page << " v=" << ctx.version
           << " size=" << ctx.size << " s=" << ctx.subCount
           << ") stored mismatch: got " << got.stored << " want "
           << want.stored;
        return os.str();
      }
    } else {
      const PageState& state = pages[page];
      RequestContext ctx;
      ctx.page = page;
      ctx.latestVersion =
          state.nextVersion > 0 ? state.nextVersion - 1 : 0;
      ctx.size = state.size;
      ctx.subCount = state.subCount;
      ctx.now = now;
      const RequestOutcome got = prod->onRequest(ctx);
      const RequestOutcome want = ref->onRequest(ctx);
      if (got.hit != want.hit || got.stale != want.stale ||
          got.storedAfterMiss != want.storedAfterMiss) {
        os << "onRequest(page=" << page << " v=" << ctx.latestVersion
           << " size=" << ctx.size << ") outcome mismatch: got {hit="
           << got.hit << " stale=" << got.stale << " stored="
           << got.storedAfterMiss << "} want {hit=" << want.hit
           << " stale=" << want.stale << " stored=" << want.storedAfterMiss
           << "}";
        return os.str();
      }
    }
    if (prod->usedBytes() != ref->usedBytes()) {
      os << "usedBytes mismatch: got " << prod->usedBytes() << " want "
         << ref->usedBytes();
      return os.str();
    }
    if (step % kInvariantEvery == 0) prod->checkInvariants();
    return std::string();
  });
}

std::vector<LockstepReport> runCacheLockstepBatch(
    const std::vector<CacheLockstepConfig>& configs, unsigned jobs) {
  // Each run writes into a slot fixed at batch-build time, so the
  // output order (and every report's seed/step coordinates) is exactly
  // what a serial loop over `configs` would produce.
  std::vector<LockstepReport> reports(configs.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    tasks.push_back([&configs, &reports, i] {
      reports[i] = runCacheLockstep(configs[i]);
    });
  }
  runAll(jobs, std::move(tasks));
  return reports;
}

// ------------------------------------------------------ shortest paths --

namespace {

Graph randomOverlay(Rng& rng, const PathsLockstepConfig& config) {
  const std::uint32_t n =
      config.minNodes +
      static_cast<std::uint32_t>(
          rng.uniformInt(config.maxNodes - config.minNodes + 1));
  Graph g(n);
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      if (rng.bernoulli(config.edgeProbability)) {
        g.addEdge(a, b, rng.uniform(0.1, 10.0));
      }
    }
  }
  return g;
}

bool sameDistance(double a, double b) {
  if (std::isinf(a) || std::isinf(b)) return std::isinf(a) && std::isinf(b);
  return std::abs(a - b) <= 1e-9 * (1.0 + std::max(std::abs(a), std::abs(b)));
}

}  // namespace

LockstepReport runPathsLockstep(const PathsLockstepConfig& config) {
  Rng rng(config.seed);
  Graph g = randomOverlay(rng, config);

  return runSteps(config.seed, config.steps, [&](std::size_t step) {
    if (step > 0 && step % config.graphEvery == 0) {
      g = randomOverlay(rng, config);
    }
    const NodeId src = static_cast<NodeId>(rng.uniformInt(g.numNodes()));
    std::vector<double> dist = shortestPaths(g, src);
    if (step == config.sabotageStep && config.sabotage) {
      config.sabotage(dist);
    }
    const std::vector<double> want = bellmanFordPaths(g, src);
    if (dist.size() != want.size()) {
      return std::string("distance vector size mismatch");
    }
    for (NodeId v = 0; v < dist.size(); ++v) {
      if (!sameDistance(dist[v], want[v])) {
        std::ostringstream os;
        os << "distance to node " << v << " (src=" << src
           << ") mismatch: got " << dist[v] << " want " << want[v];
        return os.str();
      }
    }
    checkShortestPathTree(g, src, dist);
    return std::string();
  });
}

}  // namespace pscd
