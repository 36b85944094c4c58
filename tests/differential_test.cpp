// Differential oracle tests: every optimized subsystem is driven in
// lockstep with its deliberately naive reference model
// (src/pscd/oracle/) over seeded randomized operation streams. A clean
// run must complete >= 1000 steps with no divergence; a run whose
// production side is sabotaged through the InvariantCorrupter backdoor
// must diverge and report the replayable (seed, step) pair.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "pscd/cache/dual_methods.h"
#include "pscd/cache/gds_family.h"
#include "pscd/cache/lru_strategy.h"
#include "pscd/cache/sub_strategy.h"
#include "pscd/cache/value_cache.h"
#include "pscd/oracle/lockstep.h"
#include "pscd/oracle/reference_cache.h"
#include "pscd/oracle/reference_paths.h"
#include "pscd/pubsub/covering.h"
#include "pscd/pubsub/matcher.h"
#include "pscd/topology/link_state.h"
#include "pscd/topology/network.h"
#include "pscd/util/check.h"
#include "pscd/util/rng.h"

namespace pscd {

/// Test-only backdoor (friended by the core containers) that damages
/// internal production state in ways the public API prevents, so the
/// lockstep drivers can prove they detect a broken implementation.
class InvariantCorrupter {
 public:
  static void driftUsedBytes(ValueCache& c) { ++c.used_; }
  static void driftUsedBytes(GdsFamilyStrategy& s) {
    driftUsedBytes(s.cache_);
  }
  static void driftUsedBytes(SubStrategy& s) { driftUsedBytes(s.cache_); }
  static void driftUsedBytes(DualMethodsStrategy& s) {
    driftUsedBytes(s.cache_);
  }
  static void driftUsedBytes(LruStrategy& s) { driftUsedBytes(s.cache_); }

  static void inflateLiveCount(MatchingEngine& m) { ++m.liveCount_; }
  static void dropIndexBucket(MatchingEngine& m) {
    for (auto& slots : m.slots_) {
      if (!slots.empty()) {
        slots.erase(slots.begin()->first);
        return;
      }
    }
    FAIL() << "no bucket is mapped";
  }
  static void swapPostings(MatchingEngine& m) {
    // Two postings trade places; their records still name the old ones.
    for (auto& bucket : m.buckets_) {
      if (bucket.multi.size() >= 2) {
        std::swap(bucket.multi.front(), bucket.multi.back());
        return;
      }
      if (bucket.singles.size() >= 2) {
        std::swap(bucket.singles.front(), bucket.singles.back());
        return;
      }
    }
    FAIL() << "no postings list holds two postings";
  }

  static void dropFrontierMember(CoveringSet& c) {
    ASSERT_FALSE(c.members_.empty());
    c.members_.pop_back();
  }

  static void driftResidualCost(LinkState& s) {
    ASSERT_FALSE(s.residualDirty_);  // caller must force the refresh first
    for (double& c : s.residualCost_) {
      if (std::isfinite(c)) {
        c += 0.5;
        return;
      }
    }
    FAIL() << "no finite residual cost to perturb";
  }
};

namespace {

constexpr std::size_t kSteps = 1200;
constexpr Bytes kCapacity = 256;
constexpr double kFetchCost = 2.5;

// ------------------------------------------------------------ matcher --

TEST(MatcherLockstep, AgreesWithReferenceOverRandomStreams) {
  for (const std::uint64_t seed : {11ull, 20260806ull}) {
    MatcherLockstepConfig config;
    config.seed = seed;
    config.steps = kSteps;
    const LockstepReport report = runMatcherLockstep(config);
    EXPECT_FALSE(report.diverged) << toString(report);
    EXPECT_EQ(report.stepsRun, kSteps);
  }
}

TEST(MatcherLockstep, DetectsInflatedLiveCount) {
  MatcherLockstepConfig config;
  config.seed = 7;
  config.steps = kSteps;
  config.sabotageStep = 500;
  config.sabotage = [](MatchingEngine& m) {
    InvariantCorrupter::inflateLiveCount(m);
  };
  const LockstepReport report = runMatcherLockstep(config);
  ASSERT_TRUE(report.diverged) << toString(report);
  EXPECT_EQ(report.seed, 7u);
  EXPECT_EQ(report.step, 500u);  // size compare runs after every op
  EXPECT_FALSE(report.what.empty());
}

TEST(MatcherLockstep, DetectsDroppedIndexBucket) {
  MatcherLockstepConfig config;
  config.seed = 7;
  config.steps = kSteps;
  config.sabotageStep = 500;
  config.sabotage = [](MatchingEngine& m) {
    InvariantCorrupter::dropIndexBucket(m);
  };
  const LockstepReport report = runMatcherLockstep(config);
  ASSERT_TRUE(report.diverged) << toString(report);
  // A missing posting list surfaces either as a wrong match set or as a
  // CheckFailure from the periodic invariant validation.
  EXPECT_GE(report.step, 500u);
  EXPECT_EQ(report.seed, 7u);
}

TEST(MatcherLockstep, AgreesWhenRemovalsOutnumberAdds) {
  // Adds 15%, removals 45%: the index keeps draining, so buckets empty
  // and their slots are reused again and again while the stream runs.
  for (const std::uint64_t seed : {5ull, 9ull}) {
    MatcherLockstepConfig config;
    config.seed = seed;
    config.steps = 10 * kSteps;
    config.removeShare = 0.45;
    const LockstepReport report = runMatcherLockstep(config);
    EXPECT_FALSE(report.diverged) << toString(report);
    EXPECT_EQ(report.stepsRun, config.steps);
  }
}

TEST(MatcherLockstep, DetectsDeadPostingDrift) {
  // Two postings swapped without fixing their records: matching still
  // agrees, so only the invariant validation can catch it.
  MatcherLockstepConfig config;
  config.seed = 7;
  config.steps = kSteps;
  config.sabotageStep = 512;  // a step that validates the invariants
  config.sabotage = [](MatchingEngine& m) {
    InvariantCorrupter::swapPostings(m);
  };
  const LockstepReport report = runMatcherLockstep(config);
  ASSERT_TRUE(report.diverged) << toString(report);
  EXPECT_EQ(report.seed, 7u);
  EXPECT_EQ(report.step, 512u);
  EXPECT_NE(report.what.find("misplaced posting"), std::string::npos)
      << report.what;
}

// ----------------------------------------------------------- covering --

TEST(CoveringLockstep, AgreesWithReferenceOverRandomStreams) {
  for (const std::uint64_t seed : {3ull, 424242ull}) {
    CoveringLockstepConfig config;
    config.seed = seed;
    config.steps = kSteps;
    const LockstepReport report = runCoveringLockstep(config);
    EXPECT_FALSE(report.diverged) << toString(report);
    EXPECT_EQ(report.stepsRun, kSteps);
  }
}

TEST(CoveringLockstep, DetectsDroppedFrontierMember) {
  CoveringLockstepConfig config;
  config.seed = 3;
  config.steps = kSteps;
  config.sabotageStep = 400;
  config.sabotage = [](CoveringSet& c) {
    InvariantCorrupter::dropFrontierMember(c);
  };
  const LockstepReport report = runCoveringLockstep(config);
  ASSERT_TRUE(report.diverged) << toString(report);
  EXPECT_EQ(report.step, 400u);  // member sets compared after every op
  EXPECT_EQ(report.seed, 3u);
}

// -------------------------------------------------------------- cache --

struct CachePair {
  const char* label;
  std::function<std::unique_ptr<DistributionStrategy>()> production;
  std::function<std::unique_ptr<DistributionStrategy>()> reference;
  std::function<void(DistributionStrategy&)> sabotage;
};

template <typename Production>
std::function<void(DistributionStrategy&)> driftSabotage() {
  return [](DistributionStrategy& s) {
    auto* typed = dynamic_cast<Production*>(&s);
    ASSERT_NE(typed, nullptr);
    InvariantCorrupter::driftUsedBytes(*typed);
  };
}

std::vector<CachePair> cachePairs() {
  std::vector<CachePair> pairs;
  pairs.push_back({"LRU",
                   [] { return std::make_unique<LruStrategy>(kCapacity); },
                   [] {
                     return std::make_unique<ReferenceLruStrategy>(kCapacity);
                   },
                   driftSabotage<LruStrategy>()});
  const std::vector<std::pair<const char*, GdsFamilyConfig>> family = {
      {"GD*", gdStarConfig(2.0)}, {"SG1", sg1Config(2.0)},
      {"SG2", sg2Config(1.0)},    {"SR", srConfig()},
      {"GDS", gdsConfig()},       {"LFU-DA", lfuDaConfig()},
  };
  for (const auto& [label, config] : family) {
    pairs.push_back(
        {label,
         [config] {
           return std::make_unique<GdsFamilyStrategy>(kCapacity, kFetchCost,
                                                      config);
         },
         [config] {
           return std::make_unique<ReferenceGdsFamilyStrategy>(
               kCapacity, kFetchCost, config);
         },
         driftSabotage<GdsFamilyStrategy>()});
  }
  pairs.push_back(
      {"SUB",
       [] { return std::make_unique<SubStrategy>(kCapacity, kFetchCost); },
       [] {
         return std::make_unique<ReferenceSubStrategy>(kCapacity, kFetchCost);
       },
       driftSabotage<SubStrategy>()});
  // At beta = 1 pow(u, 1/beta) returns u unchanged, so the beta = 2 pair
  // is the one that compares the access value under a real exponent.
  for (const auto& [label, beta] :
       {std::pair{"DM", 1.0}, std::pair{"DM beta=2", 2.0}}) {
    pairs.push_back({label,
                     [beta] {
                       return std::make_unique<DualMethodsStrategy>(
                           kCapacity, kFetchCost, beta);
                     },
                     [beta] {
                       return std::make_unique<ReferenceDualMethodsStrategy>(
                           kCapacity, kFetchCost, beta);
                     },
                     driftSabotage<DualMethodsStrategy>()});
  }
  return pairs;
}

TEST(CacheLockstep, EveryStrategyAgreesWithItsReference) {
  // All (strategy, seed) runs go through the parallel batch helper;
  // report order (and any divergence's seed/step) is schedule order.
  const std::vector<CachePair> pairs = cachePairs();
  std::vector<CacheLockstepConfig> configs;
  std::vector<const char*> labels;
  for (const CachePair& pair : pairs) {
    for (const std::uint64_t seed : {5ull, 998877ull}) {
      CacheLockstepConfig config;
      config.seed = seed;
      config.steps = kSteps;
      config.capacity = kCapacity;
      config.makeProduction = pair.production;
      config.makeReference = pair.reference;
      configs.push_back(std::move(config));
      labels.push_back(pair.label);
    }
  }
  const std::vector<LockstepReport> reports =
      runCacheLockstepBatch(configs, /*jobs=*/4);
  ASSERT_EQ(reports.size(), configs.size());
  for (std::size_t i = 0; i < reports.size(); ++i) {
    SCOPED_TRACE(labels[i]);
    EXPECT_FALSE(reports[i].diverged)
        << labels[i] << ": " << toString(reports[i]);
    EXPECT_EQ(reports[i].stepsRun, kSteps);
    EXPECT_EQ(reports[i].seed, configs[i].seed);
  }
}

TEST(CacheLockstep, BatchPreservesSerialDivergenceReports) {
  // A sabotaged config inside a parallel batch must report the exact
  // same (seed, step) coordinates as a standalone serial run.
  const std::vector<CachePair> pairs = cachePairs();
  std::vector<CacheLockstepConfig> configs;
  for (const CachePair& pair : pairs) {
    CacheLockstepConfig config;
    config.seed = 5;
    config.steps = kSteps;
    config.capacity = kCapacity;
    config.makeProduction = pair.production;
    config.makeReference = pair.reference;
    config.sabotageStep = 300;
    config.sabotage = pair.sabotage;
    configs.push_back(std::move(config));
  }
  const std::vector<LockstepReport> parallel =
      runCacheLockstepBatch(configs, /*jobs=*/4);
  const std::vector<LockstepReport> serial =
      runCacheLockstepBatch(configs, /*jobs=*/1);
  ASSERT_EQ(parallel.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE(pairs[i].label);
    ASSERT_TRUE(parallel[i].diverged) << toString(parallel[i]);
    EXPECT_EQ(parallel[i].seed, serial[i].seed);
    EXPECT_EQ(parallel[i].step, serial[i].step);
    EXPECT_EQ(parallel[i].what, serial[i].what);
    EXPECT_EQ(parallel[i].step, 300u);
  }
}

TEST(CacheLockstep, EveryStrategyDetectsDriftedByteAccounting) {
  for (const CachePair& pair : cachePairs()) {
    SCOPED_TRACE(pair.label);
    CacheLockstepConfig config;
    config.seed = 5;
    config.steps = kSteps;
    config.capacity = kCapacity;
    config.makeProduction = pair.production;
    config.makeReference = pair.reference;
    config.sabotageStep = 300;
    config.sabotage = pair.sabotage;
    const LockstepReport report = runCacheLockstep(config);
    ASSERT_TRUE(report.diverged) << pair.label << ": " << toString(report);
    // A one-byte accounting drift changes either the admission decision
    // of the very next operation or the usedBytes comparison after it.
    EXPECT_EQ(report.step, 300u) << pair.label;
    EXPECT_EQ(report.seed, 5u);
  }
}

// ------------------------------------------------------ shortest paths --

TEST(PathsLockstep, DijkstraAgreesWithBellmanFord) {
  for (const std::uint64_t seed : {17ull, 90210ull}) {
    PathsLockstepConfig config;
    config.seed = seed;
    config.steps = kSteps;
    const LockstepReport report = runPathsLockstep(config);
    EXPECT_FALSE(report.diverged) << toString(report);
    EXPECT_EQ(report.stepsRun, kSteps);
  }
}

TEST(PathsLockstep, DetectsPerturbedDistance) {
  PathsLockstepConfig config;
  config.seed = 17;
  config.steps = kSteps;
  config.sabotageStep = 250;
  config.sabotage = [](std::vector<double>& dist) {
    for (double& d : dist) {
      if (std::isfinite(d)) {
        d += 0.5;  // the source entry is always finite
        return;
      }
    }
    FAIL() << "no finite distance to perturb";
  };
  const LockstepReport report = runPathsLockstep(config);
  ASSERT_TRUE(report.diverged) << toString(report);
  EXPECT_EQ(report.step, 250u);
  EXPECT_EQ(report.seed, 17u);
}

// ------------------------------------------------ residual fetch costs --

/// Naive reference for LinkState::fetchCost: rebuild the damaged graph
/// without the down edges, run Bellman-Ford from the publisher, and
/// apply the seed normalization (mean division, 0.01 floor).
std::vector<double> residualReferenceCosts(const Network& n,
                                           const LinkState& ls) {
  Graph damaged(n.graph().numNodes());
  for (NodeId a = 0; a < n.graph().numNodes(); ++a) {
    for (const Graph::Edge& e : n.graph().neighbors(a)) {
      if (a < e.to && !ls.linkDown(a, e.to)) {
        damaged.addEdge(a, e.to, e.weight);
      }
    }
  }
  const std::vector<double> dist =
      bellmanFordPaths(damaged, n.publisherNode());
  std::vector<double> costs(n.numProxies());
  for (ProxyId p = 0; p < n.numProxies(); ++p) {
    const double d = dist[n.proxyNode(p)];
    costs[p] =
        std::isfinite(d) ? std::max(d / n.normalizationMean(), 0.01) : d;
  }
  return costs;
}

std::vector<std::pair<NodeId, NodeId>> seedEdges(const Network& n) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId a = 0; a < n.graph().numNodes(); ++a) {
    for (const Graph::Edge& e : n.graph().neighbors(a)) {
      if (a < e.to) edges.push_back({a, e.to});
    }
  }
  return edges;
}

TEST(ResidualPathsLockstep, AgreesWithBellmanFordOnTheDamagedGraph) {
  for (const std::uint64_t seed : {13ull, 20260807ull}) {
    SCOPED_TRACE(seed);
    Rng netRng(seed);
    const Network n(NetworkParams{.numProxies = 10, .numTransitNodes = 5},
                    netRng);
    const auto edges = seedEdges(n);
    ASSERT_FALSE(edges.empty());
    LinkState ls(n);
    Rng toggles(seed + 1);
    for (std::size_t step = 0; step < kSteps; ++step) {
      const auto& [a, b] = edges[toggles.uniformInt(edges.size())];
      if (ls.linkDown(a, b)) {
        ls.setLinkUp(a, b);
      } else {
        ls.setLinkDown(a, b);
      }
      const std::vector<double> expected = residualReferenceCosts(n, ls);
      for (ProxyId p = 0; p < n.numProxies(); ++p) {
        const double got = ls.fetchCost(p);
        ASSERT_EQ(std::isfinite(got), std::isfinite(expected[p]))
            << "reachability diverged: seed=" << seed << " step=" << step
            << " proxy=" << p;
        if (std::isfinite(got)) {
          ASSERT_LE(std::abs(got - expected[p]),
                    1e-9 * (1.0 + std::abs(expected[p])))
              << "cost diverged: seed=" << seed << " step=" << step
              << " proxy=" << p;
        }
      }
    }
  }
}

TEST(ResidualPathsLockstep, DetectsDriftedResidualCache) {
  Rng netRng(13);
  const Network n(NetworkParams{.numProxies = 10, .numTransitNodes = 5},
                  netRng);
  LinkState ls(n);
  ls.setLinkDown(seedEdges(n).front().first, seedEdges(n).front().second);
  for (ProxyId p = 0; p < n.numProxies(); ++p) {
    (void)ls.fetchCost(p);  // force the lazy residual refresh
  }
  InvariantCorrupter::driftResidualCost(ls);
  // The drift is visible both to the lockstep compare and the overlay's
  // own self-check.
  const std::vector<double> expected = residualReferenceCosts(n, ls);
  bool diverged = false;
  for (ProxyId p = 0; p < n.numProxies(); ++p) {
    const double got = ls.fetchCost(p);
    if (std::isfinite(got) != std::isfinite(expected[p]) ||
        (std::isfinite(got) &&
         std::abs(got - expected[p]) > 1e-9 * (1.0 + std::abs(expected[p])))) {
      diverged = true;
    }
  }
  EXPECT_TRUE(diverged);
  EXPECT_THROW(ls.checkInvariants(), CheckFailure);
}

// ------------------------------------------------------- replayability --

TEST(LockstepReport, DivergenceReplaysIdentically) {
  const auto run = [] {
    MatcherLockstepConfig config;
    config.seed = 31;
    config.steps = kSteps;
    config.sabotageStep = 200;
    config.sabotage = [](MatchingEngine& m) {
      InvariantCorrupter::inflateLiveCount(m);
    };
    return runMatcherLockstep(config);
  };
  const LockstepReport first = run();
  const LockstepReport second = run();
  ASSERT_TRUE(first.diverged);
  EXPECT_EQ(first.step, second.step);
  EXPECT_EQ(first.seed, second.seed);
  EXPECT_EQ(first.what, second.what);
  EXPECT_NE(toString(first).find("seed=31"), std::string::npos);
  EXPECT_NE(toString(first).find("step=200"), std::string::npos);
}

}  // namespace
}  // namespace pscd
