#include "pscd/topology/link_state.h"

#include <gtest/gtest.h>

#include <cmath>

#include "pscd/topology/network.h"
#include "pscd/util/check.h"
#include "pscd/util/rng.h"

namespace pscd {
namespace {

Network randomNetwork(std::uint64_t seed = 9) {
  Rng rng(seed);
  return Network(NetworkParams{.numProxies = 12, .numTransitNodes = 6}, rng);
}

/// Diamond overlay: publisher 0, proxies on 1 and 2, cheap path
/// 0-1-2 (1 + 1) and expensive detour 0-3-2 (5 + 5).
Network diamondNetwork() {
  Graph g(4);
  g.addEdge(0, 1, 1.0);
  g.addEdge(1, 2, 1.0);
  g.addEdge(0, 3, 5.0);
  g.addEdge(3, 2, 5.0);
  return Network(std::move(g), /*publisherNode=*/0, /*proxyNodes=*/{1, 2});
}

TEST(NetworkReachable, ConnectedGraphReachesEveryProxy) {
  const Network n = randomNetwork();
  for (ProxyId p = 0; p < n.numProxies(); ++p) {
    EXPECT_TRUE(n.reachable(p));
    EXPECT_TRUE(std::isfinite(n.fetchCost(p)));
  }
  EXPECT_NO_THROW(n.checkInvariants());
}

TEST(NetworkReachable, DisconnectedProxyGetsInfiniteCost) {
  Graph g(3);
  g.addEdge(0, 1, 2.0);  // node 2 is isolated
  const Network n(std::move(g), 0, {1, 2});
  EXPECT_TRUE(n.reachable(0));
  EXPECT_FALSE(n.reachable(1));
  EXPECT_TRUE(std::isinf(n.fetchCost(1)));
  // Normalization runs over reachable proxies only: the single
  // reachable proxy sits exactly at the mean.
  EXPECT_DOUBLE_EQ(n.fetchCost(0), 1.0);
  EXPECT_DOUBLE_EQ(n.normalizationMean(), 2.0);
  EXPECT_NO_THROW(n.checkInvariants());
}

TEST(NetworkReachable, CustomConstructorValidatesPlacement) {
  {
    Graph g(3);
    g.addEdge(0, 1, 1.0);
    EXPECT_THROW(Network(std::move(g), 0, {1, 1}), CheckFailure);
  }
  {
    Graph g(3);
    g.addEdge(0, 1, 1.0);
    EXPECT_THROW(Network(std::move(g), 0, {0, 1}), CheckFailure);
  }
  {
    Graph g(3);
    g.addEdge(0, 1, 1.0);
    EXPECT_THROW(Network(std::move(g), 0, {1, 7}), CheckFailure);
  }
}

TEST(LinkState, SeedFastPathReturnsTheExactSeedCosts) {
  const Network n = randomNetwork();
  LinkState ls(n);
  EXPECT_FALSE(ls.anyLinkDown());
  for (ProxyId p = 0; p < n.numProxies(); ++p) {
    // Bitwise equality: while no link is down the overlay must hand out
    // the very doubles the seed network stores.
    EXPECT_EQ(ls.fetchCost(p), n.fetchCost(p));
    EXPECT_TRUE(ls.reachable(p));
    EXPECT_TRUE(ls.pathToPublisher(p));
  }
  EXPECT_NO_THROW(ls.checkInvariants());
}

TEST(LinkState, ProxyCrashTogglesAreIdempotent) {
  const Network n = randomNetwork();
  LinkState ls(n);
  ls.setProxyDown(3);
  ls.setProxyDown(3);
  EXPECT_TRUE(ls.proxyDown(3));
  EXPECT_EQ(ls.downProxyCount(), 1u);
  // A crashed process does not sever the network path.
  EXPECT_FALSE(ls.reachable(3));
  EXPECT_TRUE(ls.pathToPublisher(3));
  ls.setProxyUp(3);
  ls.setProxyUp(3);
  EXPECT_FALSE(ls.proxyDown(3));
  EXPECT_EQ(ls.downProxyCount(), 0u);
  EXPECT_THROW(ls.setProxyDown(n.numProxies()), CheckFailure);
  EXPECT_NO_THROW(ls.checkInvariants());
}

TEST(LinkState, LinkFailureReroutesOverTheResidualGraph) {
  const Network n = diamondNetwork();
  // Seed: d(1) = 1, d(2) = 2, mean 1.5.
  EXPECT_DOUBLE_EQ(n.normalizationMean(), 1.5);
  LinkState ls(n);
  ls.setLinkDown(1, 2);
  EXPECT_TRUE(ls.anyLinkDown());
  EXPECT_EQ(ls.downLinkCount(), 1u);
  // Proxy on node 1 keeps its direct link; proxy on node 2 detours
  // through 0-3-2 at raw distance 10.
  EXPECT_DOUBLE_EQ(ls.fetchCost(0), 1.0 / 1.5);
  EXPECT_DOUBLE_EQ(ls.fetchCost(1), 10.0 / 1.5);
  EXPECT_NO_THROW(ls.checkInvariants());
}

TEST(LinkState, PartitionedProxyGetsInfiniteCost) {
  const Network n = diamondNetwork();
  LinkState ls(n);
  ls.setLinkDown(0, 1);
  ls.setLinkDown(1, 2);
  // Node 1 lost both its edges: partitioned. Node 2 detours via 3.
  EXPECT_TRUE(std::isinf(ls.fetchCost(0)));
  EXPECT_FALSE(ls.pathToPublisher(0));
  EXPECT_FALSE(ls.reachable(0));
  EXPECT_DOUBLE_EQ(ls.fetchCost(1), 10.0 / 1.5);
  EXPECT_NO_THROW(ls.checkInvariants());
}

TEST(LinkState, RepairRestoresTheSeedFastPath) {
  const Network n = diamondNetwork();
  LinkState ls(n);
  ls.setLinkDown(1, 2);
  ls.setLinkDown(1, 2);  // idempotent
  EXPECT_EQ(ls.downLinkCount(), 1u);
  ls.setLinkUp(1, 2);
  EXPECT_FALSE(ls.anyLinkDown());
  for (ProxyId p = 0; p < n.numProxies(); ++p) {
    EXPECT_EQ(ls.fetchCost(p), n.fetchCost(p));
  }
  EXPECT_NO_THROW(ls.checkInvariants());
}

TEST(LinkState, EndpointOrderDoesNotMatter) {
  const Network n = diamondNetwork();
  LinkState ls(n);
  ls.setLinkDown(2, 1);  // reversed endpoints
  EXPECT_TRUE(ls.linkDown(1, 2));
  ls.setLinkUp(1, 2);
  EXPECT_FALSE(ls.linkDown(2, 1));
}

TEST(LinkState, RejectsUnknownLinks) {
  const Network n = diamondNetwork();
  LinkState ls(n);
  EXPECT_THROW(ls.setLinkDown(0, 2), CheckFailure);
  EXPECT_THROW(ls.setLinkUp(1, 3), CheckFailure);
}

TEST(LinkState, RandomTopologyResidualStaysConsistent) {
  const Network n = randomNetwork(21);
  LinkState ls(n);
  // Fail a handful of real edges and keep validating: the residual
  // cache must always match a fresh damaged-graph recompute, bit for
  // bit, including after toggles that skipped the recompute.
  Rng rng(5);
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId a = 0; a < n.graph().numNodes(); ++a) {
    for (const Graph::Edge& e : n.graph().neighbors(a)) {
      if (a < e.to) edges.push_back({a, e.to});
    }
  }
  for (int step = 0; step < 200; ++step) {
    const auto& [a, b] = edges[rng.uniformInt(edges.size())];
    if (ls.linkDown(a, b)) {
      ls.setLinkUp(a, b);
    } else {
      ls.setLinkDown(a, b);
    }
    LinkState fresh(n);
    for (const auto& [u, v] : edges) {
      if (ls.linkDown(u, v)) fresh.setLinkDown(u, v);
    }
    for (ProxyId p = 0; p < n.numProxies(); ++p) {
      // Forces the lazy residual refresh; bitwise equal to a fresh one.
      ASSERT_EQ(ls.fetchCost(p), fresh.fetchCost(p))
          << "step " << step << " proxy " << p;
    }
    ASSERT_NO_THROW(ls.checkInvariants()) << "after step " << step;
  }
}

}  // namespace
}  // namespace pscd
