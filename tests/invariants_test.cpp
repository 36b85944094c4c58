// Exercises the deep invariant validators: every subsystem's
// checkInvariants() must pass on organically built state and must
// detect deliberately corrupted state. Corruption goes through the
// InvariantCorrupter friend so the tests can reach internal bookkeeping
// that the public API (correctly) never lets drift.
#include <gtest/gtest.h>

#include <utility>

#include "pscd/cache/dual_cache.h"
#include "pscd/cache/dual_methods.h"
#include "pscd/cache/gds_family.h"
#include "pscd/cache/lru_strategy.h"
#include "pscd/cache/value_cache.h"
#include "pscd/core/engine.h"
#include "pscd/pubsub/broker.h"
#include "pscd/pubsub/matcher.h"
#include "pscd/sim/simulator.h"
#include "pscd/topology/graph.h"
#include "pscd/topology/network.h"
#include "pscd/topology/shortest_path.h"
#include "pscd/util/check.h"
#include "pscd/workload/workload.h"

namespace pscd {

/// Test-only backdoor (friended by the core containers) that damages
/// internal state in ways the public API prevents.
class InvariantCorrupter {
 public:
  static void driftUsedBytes(ValueCache& c) { ++c.used_; }
  static void desyncHeapKey(ValueCache& c) {
    c.entries_.front().value += 1.0;  // heap node not re-keyed
  }
  static void dropHeapNode(ValueCache& c) { c.heap_.pop_back(); }
  static void driftHeapPosition(ValueCache& c) {
    // Two slots point at each other's heap nodes (sizes stay equal).
    std::swap(c.heapPos_[0], c.heapPos_[1]);
  }

  static void driftUsedBytes(DualMethodsStrategy& s) { ++s.used_; }
  static void driftUsedBytes(LruStrategy& s) { ++s.used_; }
  static void detachMapNode(LruStrategy& s) {
    // Point the map at the wrong list node (self-consistent sizes).
    auto second = std::next(s.lru_.begin());
    s.map_[s.lru_.begin()->page] = second;
  }

  static void inflateLiveCount(MatchingEngine& m) { ++m.liveCount_; }
  static void duplicatePosting(MatchingEngine& m) {
    auto& list = m.index_.begin()->second;
    list.push_back(list.front());
  }
  static void driftDeadPostings(MatchingEngine& m) { ++m.deadPostings_; }

  static void unsortAggregation(Broker& b) {
    auto& list = b.aggregated_.front().list;
    ASSERT_GE(list.size(), 2u);
    std::swap(list.front(), list.back());
  }

  static void skewEdgeWeight(Graph& g) {
    // Raise one direction of an undirected edge only.
    for (auto& edges : g.adj_) {
      if (!edges.empty()) {
        edges.front().weight += 1.0;
        return;
      }
    }
    FAIL() << "graph has no edges to corrupt";
  }
  static void driftEdgeCount(Graph& g) { ++g.edges_; }

  static void skewFetchCost(Network& n) { n.fetchCost_.front() *= 2.0; }
};

namespace {

CacheEntry entry(PageId page, Bytes size) {
  CacheEntry e;
  e.page = page;
  e.size = size;
  return e;
}

ValueCache populatedCache() {
  ValueCache c(100);
  c.insertNoEvict(entry(1, 30), 1.0);
  c.insertNoEvict(entry(2, 30), 2.0);
  c.insertNoEvict(entry(3, 30), 3.0);
  c.checkInvariants();  // sanity: valid before corruption
  return c;
}

TEST(ValueCacheInvariantsTest, DetectsByteAccountingDrift) {
  ValueCache c = populatedCache();
  InvariantCorrupter::driftUsedBytes(c);
  EXPECT_THROW(c.checkInvariants(), CheckFailure);
}

TEST(ValueCacheInvariantsTest, DetectsStaleIndexKey) {
  ValueCache c = populatedCache();
  InvariantCorrupter::desyncHeapKey(c);
  EXPECT_THROW(c.checkInvariants(), CheckFailure);
}

TEST(ValueCacheInvariantsTest, DetectsMissingIndexEntry) {
  ValueCache c = populatedCache();
  InvariantCorrupter::dropHeapNode(c);
  EXPECT_THROW(c.checkInvariants(), CheckFailure);
}

TEST(ValueCacheInvariantsTest, DetectsHeapPositionDrift) {
  ValueCache c = populatedCache();
  InvariantCorrupter::driftHeapPosition(c);
  EXPECT_THROW(c.checkInvariants(), CheckFailure);
}

TEST(DualMethodsInvariantsTest, PassesOrganicStateAndDetectsDrift) {
  DualMethodsStrategy s(100, 1.0, 2.0);
  PushContext push;
  push.page = 1;
  push.version = 1;
  push.size = 40;
  push.subCount = 3;
  s.onPush(push);
  RequestContext req;
  req.page = 2;
  req.latestVersion = 1;
  req.size = 30;
  req.now = 1.0;
  s.onRequest(req);
  s.checkInvariants();
  InvariantCorrupter::driftUsedBytes(s);
  EXPECT_THROW(s.checkInvariants(), CheckFailure);
}

TEST(LruInvariantsTest, DetectsDriftAndDanglingMapNodes) {
  LruStrategy s(100);
  for (PageId p = 1; p <= 3; ++p) {
    RequestContext req;
    req.page = p;
    req.latestVersion = 1;
    req.size = 20;
    req.now = static_cast<SimTime>(p);
    s.onRequest(req);
  }
  s.checkInvariants();

  LruStrategy drifted(100);
  RequestContext req;
  req.page = 1;
  req.latestVersion = 1;
  req.size = 20;
  drifted.onRequest(req);
  InvariantCorrupter::driftUsedBytes(drifted);
  EXPECT_THROW(drifted.checkInvariants(), CheckFailure);

  InvariantCorrupter::detachMapNode(s);
  EXPECT_THROW(s.checkInvariants(), CheckFailure);
}

TEST(GdsFamilyInvariantsTest, CorruptingTheUnderlyingCacheIsDetected) {
  GdsFamilyStrategy s(100, 1.0, gdStarConfig(2.0));
  RequestContext req;
  req.page = 7;
  req.latestVersion = 1;
  req.size = 25;
  req.now = 1.0;
  s.onRequest(req);
  s.checkInvariants();
  // The cache() accessor is const; the corrupter is a friend of
  // ValueCache itself, so a const_cast models in-memory corruption.
  InvariantCorrupter::driftUsedBytes(const_cast<ValueCache&>(s.cache()));
  EXPECT_THROW(s.checkInvariants(), CheckFailure);
}

TEST(DualCacheInvariantsTest, CorruptedPartitionIsDetected) {
  DualCacheConfig config;
  config.mode = PartitionMode::kAdaptive;
  DualCacheStrategy s(100, 1.0, config);
  PushContext push;
  push.page = 1;
  push.version = 1;
  push.size = 20;
  push.subCount = 2;
  s.onPush(push);
  s.checkInvariants();
  InvariantCorrupter::driftUsedBytes(
      const_cast<ValueCache&>(s.pushCache()));
  EXPECT_THROW(s.checkInvariants(), CheckFailure);
}

MatchingEngine populatedMatcher() {
  MatchingEngine m;
  Subscription a;
  a.proxy = 0;
  a.conjuncts = {{Predicate::Kind::kCategoryEq, 4},
                 {Predicate::Kind::kKeywordContains, 9}};
  Subscription b;
  b.proxy = 1;
  b.conjuncts = {{Predicate::Kind::kCategoryEq, 4}};
  m.addSubscription(std::move(a));
  m.addSubscription(std::move(b));
  m.checkInvariants();
  return m;
}

TEST(MatcherInvariantsTest, DetectsLiveCounterDrift) {
  MatchingEngine m = populatedMatcher();
  InvariantCorrupter::inflateLiveCount(m);
  EXPECT_THROW(m.checkInvariants(), CheckFailure);
}

TEST(MatcherInvariantsTest, DetectsDuplicatedPosting) {
  MatchingEngine m = populatedMatcher();
  InvariantCorrupter::duplicatePosting(m);
  EXPECT_THROW(m.checkInvariants(), CheckFailure);
}

TEST(MatcherInvariantsTest, DetectsDeadPostingCounterDrift) {
  MatchingEngine m = populatedMatcher();
  InvariantCorrupter::driftDeadPostings(m);
  EXPECT_THROW(m.checkInvariants(), CheckFailure);
}

TEST(MatcherInvariantsTest, RemovalKeepsInvariants) {
  MatchingEngine m = populatedMatcher();
  EXPECT_TRUE(m.removeSubscription(1));
  m.checkInvariants();  // one dead posting left in the index
  EXPECT_TRUE(m.removeSubscription(0));
  m.checkInvariants();  // dead outnumbered live: compacted away
}

TEST(BrokerInvariantsTest, DetectsUnsortedAggregationList) {
  Broker b(4);
  b.subscribeAggregated(1, 10, 2);
  b.subscribeAggregated(3, 10, 1);
  b.checkInvariants();
  InvariantCorrupter::unsortAggregation(b);
  EXPECT_THROW(b.checkInvariants(), CheckFailure);
}

TEST(BrokerInvariantsTest, ChurnLeavesNoEmptyLists) {
  Broker b(4);
  b.subscribeAggregated(1, 10, 1);
  EXPECT_EQ(b.unsubscribeAggregated(1, 10, 1), 1u);
  b.checkInvariants();
  EXPECT_EQ(b.aggregatedCount(1, 10), 0u);
}

Graph smallGraph() {
  Graph g(4);
  g.addEdge(0, 1, 1.0);
  g.addEdge(1, 2, 2.0);
  g.addEdge(2, 3, 1.5);
  g.addEdge(0, 3, 5.0);
  g.checkInvariants();
  return g;
}

TEST(GraphInvariantsTest, DetectsAsymmetricWeights) {
  Graph g = smallGraph();
  InvariantCorrupter::skewEdgeWeight(g);
  EXPECT_THROW(g.checkInvariants(), CheckFailure);
}

TEST(GraphInvariantsTest, DetectsEdgeCounterDrift) {
  Graph g = smallGraph();
  InvariantCorrupter::driftEdgeCount(g);
  EXPECT_THROW(g.checkInvariants(), CheckFailure);
}

TEST(ShortestPathInvariantsTest, AcceptsDijkstraOutputRejectsTampering) {
  const Graph g = smallGraph();
  std::vector<double> dist = shortestPaths(g, 0);
  checkShortestPathTree(g, 0, dist);
  dist[2] += 0.5;  // no longer tight/relaxed
  EXPECT_THROW(checkShortestPathTree(g, 0, dist), CheckFailure);
}

TEST(NetworkInvariantsTest, PassesFreshAndDetectsSkewedCosts) {
  Rng rng(11);
  Network n(NetworkParams{.numProxies = 10, .numTransitNodes = 5}, rng);
  n.checkInvariants();
  InvariantCorrupter::skewFetchCost(n);
  EXPECT_THROW(n.checkInvariants(), CheckFailure);
}

TEST(EngineInvariantsTest, EndToEndStateStaysValid) {
  Rng rng(5);
  Network network(NetworkParams{.numProxies = 4, .numTransitNodes = 2}, rng);
  EngineConfig ec;
  ec.strategy = StrategyKind::kSG2;
  ec.beta = 2.0;
  ec.proxyCapacities = {200, 200, 200, 200};
  ContentDistributionEngine engine(network, std::move(ec));
  engine.broker().subscribeAggregated(0, 1, 2);
  engine.broker().subscribeAggregated(2, 1, 1);
  PublishEvent ev;
  ev.page = 1;
  ev.version = 1;
  ev.size = 50;
  ev.time = 0.5;
  engine.publish(ev);
  engine.request(0, 1, 1.0);
  engine.request(1, 1, 1.5);
  EXPECT_NO_THROW(engine.checkInvariants());
}

TEST(SimulatorSelfCheckTest, HourlySelfCheckRunsGreenEndToEnd) {
  WorkloadParams p = newsTraceParams();
  p.publishing.numPages = 120;
  p.publishing.numUpdatedPages = 50;
  p.publishing.maxVersionsPerPage = 10;
  p.request.totalRequests = 2500;
  p.request.numProxies = 5;
  p.request.minServerPool = 2;
  p.seed = 17;
  const Workload workload = buildWorkload(p);
  Rng rng(9);
  Network network(
      NetworkParams{.numProxies = 5, .numTransitNodes = 3}, rng);
  SimConfig config;
  config.strategy = StrategyKind::kDCAP;
  config.capacityFraction = 0.05;
  config.selfCheckHourly = true;
  EXPECT_NO_THROW(Simulator(workload, network, config).run());
}

}  // namespace
}  // namespace pscd
