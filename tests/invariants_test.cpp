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
#include "pscd/core/service.h"
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

  static void driftUsedBytes(DualMethodsStrategy& s) {
    driftUsedBytes(s.cache_);
  }
  static void desyncSubKey(DualMethodsStrategy& s) {
    // The first page's SUB key moves to a value it does not have.
    auto node = s.subOrder_.extract(s.subOrder_.begin());
    node.value().first += 1.0;
    s.subOrder_.insert(std::move(node));
  }
  static void driftUsedBytes(LruStrategy& s) { driftUsedBytes(s.cache_); }
  static void desyncHeapKey(LruStrategy& s) { desyncHeapKey(s.cache_); }

  static void inflateLiveCount(MatchingEngine& m) { ++m.liveCount_; }
  static void duplicatePosting(MatchingEngine& m) {
    auto& list = m.buckets_.front().multi;
    ASSERT_FALSE(list.empty());
    list.push_back(list.front());
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

class DiscardSink final : public EventSink {
 public:
  void onPush(const PushDelivery&) override {}
  void onRequest(const RequestDelivery&) override {}
};

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
  DualMethodsStrategy stale(100, 1.0, 2.0);
  stale.onPush(push);
  InvariantCorrupter::desyncSubKey(stale);
  EXPECT_THROW(stale.checkInvariants(), CheckFailure);
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

  // A recency tick changed without re-keying the heap.
  InvariantCorrupter::desyncHeapKey(s);
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
  Subscription c = b;
  c.proxy = 2;
  m.addSubscription(std::move(a));
  m.addSubscription(std::move(b));
  m.addSubscription(std::move(c));
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
  // A misplaced posting: two postings trade places, records untouched.
  MatchingEngine m = populatedMatcher();
  InvariantCorrupter::swapPostings(m);
  EXPECT_THROW(m.checkInvariants(), CheckFailure);
}

TEST(MatcherInvariantsTest, RemovalKeepsInvariants) {
  MatchingEngine m = populatedMatcher();
  EXPECT_TRUE(m.removeSubscription(1));
  m.checkInvariants();  // subscription 2's posting moved into the gap
  EXPECT_TRUE(m.removeSubscription(0));
  m.checkInvariants();
  EXPECT_TRUE(m.removeSubscription(2));
  m.checkInvariants();  // the emptied bucket's slot is free
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
  ServiceConfig sc;
  sc.engine.strategy = StrategyKind::kSG2;
  sc.engine.beta = 2.0;
  sc.engine.proxyCapacities = {200, 200, 200, 200};
  ManualClock clock;
  DiscardSink sink;
  DistributionService service(network, clock, sink, std::move(sc));
  service.broker().subscribeAggregated(0, 1, 2);
  service.broker().subscribeAggregated(2, 1, 1);
  PublishEvent ev;
  ev.page = 1;
  ev.version = 1;
  ev.size = 50;
  ev.time = 0.5;
  clock.advance(ev.time);
  service.handlePublish(ev);
  clock.advance(1.0);
  service.handleRequest(0, 1);
  clock.advance(1.5);
  service.handleRequest(1, 1);
  EXPECT_NO_THROW(service.checkInvariants());
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
