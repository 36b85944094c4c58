#include <gtest/gtest.h>

#include <cmath>

#include "pscd/topology/barabasi_albert.h"
#include "pscd/topology/network.h"
#include "pscd/topology/shortest_path.h"
#include "pscd/topology/waxman.h"

namespace pscd {
namespace {

TEST(WaxmanTest, ProducesConnectedGraph) {
  Rng rng(1);
  const auto t = generateWaxman({.numNodes = 80}, rng);
  EXPECT_EQ(t.graph.numNodes(), 80u);
  EXPECT_TRUE(t.graph.isConnected());
  EXPECT_EQ(t.x.size(), 80u);
  EXPECT_EQ(t.y.size(), 80u);
}

TEST(WaxmanTest, DeterministicGivenSeed) {
  Rng a(5), b(5);
  const auto ta = generateWaxman({.numNodes = 40}, a);
  const auto tb = generateWaxman({.numNodes = 40}, b);
  EXPECT_EQ(ta.graph.numEdges(), tb.graph.numEdges());
  for (NodeId n = 0; n < 40; ++n) {
    EXPECT_DOUBLE_EQ(ta.x[n], tb.x[n]);
    EXPECT_DOUBLE_EQ(ta.y[n], tb.y[n]);
  }
}

TEST(WaxmanTest, HigherAlphaMeansMoreEdges) {
  Rng a(3), b(3);
  const auto sparse = generateWaxman({.numNodes = 60, .alpha = 0.05}, a);
  const auto dense = generateWaxman({.numNodes = 60, .alpha = 0.9}, b);
  EXPECT_GT(dense.graph.numEdges(), sparse.graph.numEdges());
}

TEST(WaxmanTest, CoordinatesInsidePlane) {
  Rng rng(4);
  const auto t = generateWaxman({.numNodes = 30, .plane = 500.0}, rng);
  for (NodeId n = 0; n < 30; ++n) {
    EXPECT_GE(t.x[n], 0.0);
    EXPECT_LT(t.x[n], 500.0);
    EXPECT_GE(t.y[n], 0.0);
    EXPECT_LT(t.y[n], 500.0);
  }
}

TEST(WaxmanTest, RejectsBadParams) {
  Rng rng(1);
  EXPECT_THROW(generateWaxman({.numNodes = 0}, rng), std::invalid_argument);
  EXPECT_THROW(generateWaxman({.numNodes = 5, .alpha = 0.0}, rng),
               std::invalid_argument);
  EXPECT_THROW(generateWaxman({.numNodes = 5, .beta = -1.0}, rng),
               std::invalid_argument);
}

TEST(BarabasiAlbertTest, ConnectedAndRightEdgeCount) {
  Rng rng(2);
  const auto g =
      generateBarabasiAlbert({.numNodes = 100, .edgesPerNode = 2}, rng);
  EXPECT_TRUE(g.isConnected());
  // clique(3) has 3 edges, then 97 nodes x 2 edges.
  EXPECT_EQ(g.numEdges(), 3u + 97u * 2u);
}

TEST(BarabasiAlbertTest, HubsEmerge) {
  Rng rng(6);
  const auto g =
      generateBarabasiAlbert({.numNodes = 300, .edgesPerNode = 2}, rng);
  std::uint32_t maxDeg = 0;
  for (NodeId n = 0; n < g.numNodes(); ++n) {
    maxDeg = std::max(maxDeg, g.degree(n));
  }
  // Scale-free graphs grow hubs well above the mean degree (~4).
  EXPECT_GT(maxDeg, 12u);
}

TEST(BarabasiAlbertTest, RejectsBadParams) {
  Rng rng(1);
  EXPECT_THROW(generateBarabasiAlbert({.numNodes = 2, .edgesPerNode = 2}, rng),
               std::invalid_argument);
  EXPECT_THROW(generateBarabasiAlbert({.numNodes = 9, .edgesPerNode = 0}, rng),
               std::invalid_argument);
}

TEST(ShortestPathTest, SimpleChain) {
  Graph g(4);
  g.addEdge(0, 1, 1.0);
  g.addEdge(1, 2, 2.0);
  g.addEdge(2, 3, 3.0);
  const auto d = shortestPaths(g, 0);
  EXPECT_DOUBLE_EQ(d[0], 0.0);
  EXPECT_DOUBLE_EQ(d[1], 1.0);
  EXPECT_DOUBLE_EQ(d[2], 3.0);
  EXPECT_DOUBLE_EQ(d[3], 6.0);
}

TEST(ShortestPathTest, PicksShorterRoute) {
  Graph g(3);
  g.addEdge(0, 1, 10.0);
  g.addEdge(0, 2, 1.0);
  g.addEdge(2, 1, 2.0);
  const auto d = shortestPaths(g, 0);
  EXPECT_DOUBLE_EQ(d[1], 3.0);
}

TEST(ShortestPathTest, UnreachableIsInfinite) {
  Graph g(3);
  g.addEdge(0, 1, 1.0);
  const auto d = shortestPaths(g, 0);
  EXPECT_TRUE(std::isinf(d[2]));
}

TEST(ShortestPathTest, RejectsBadSource) {
  Graph g(2);
  EXPECT_THROW(shortestPaths(g, 7), std::out_of_range);
}

TEST(ShortestPathTest, SlotMaskEqualsTheGraphWithoutThoseEdges) {
  // Masking a link's two slots must give, bit for bit, the distances of
  // a graph rebuilt without the link.
  Rng rng(3);
  const Graph g = generateWaxman({.numNodes = 60}, rng).graph;
  std::vector<std::uint32_t> slotBase{0};
  for (NodeId n = 0; n < g.numNodes(); ++n) {
    slotBase.push_back(slotBase.back() + g.degree(n));
  }
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint8_t> slotDown(slotBase.back(), 0);
    Graph pruned(g.numNodes());
    for (NodeId a = 0; a < g.numNodes(); ++a) {
      for (const Graph::Edge& e : g.neighbors(a)) {
        if (a > e.to) continue;
        if (rng.uniformInt(4) != 0) {
          pruned.addEdge(a, e.to, e.weight);
          continue;
        }
        for (const auto& [from, to] :
             {std::pair{a, e.to}, std::pair{e.to, a}}) {
          const auto edges = g.neighbors(from);
          for (std::size_t i = 0; i < edges.size(); ++i) {
            if (edges[i].to == to) slotDown[slotBase[from] + i] = 1;
          }
        }
      }
    }
    const auto masked = shortestPaths(g, 0, slotBase, slotDown);
    const auto rebuilt = shortestPaths(pruned, 0);
    for (NodeId n = 0; n < g.numNodes(); ++n) {
      EXPECT_EQ(masked[n], rebuilt[n]) << "trial " << trial << " node " << n;
    }
  }
}

TEST(NetworkTest, FetchCostsNormalizedToMeanOne) {
  Rng rng(7);
  const Network net(NetworkParams{.numProxies = 50}, rng);
  EXPECT_EQ(net.numProxies(), 50u);
  double sum = 0.0;
  for (ProxyId p = 0; p < 50; ++p) {
    EXPECT_GT(net.fetchCost(p), 0.0);
    sum += net.fetchCost(p);
  }
  EXPECT_NEAR(sum / 50.0, 1.0, 0.05);  // small clamp-induced slack
}

TEST(NetworkTest, ProxiesMapToDistinctNodes) {
  Rng rng(8);
  const Network net(NetworkParams{.numProxies = 20, .numTransitNodes = 10},
                    rng);
  std::set<NodeId> nodes;
  nodes.insert(net.publisherNode());
  for (ProxyId p = 0; p < 20; ++p) nodes.insert(net.proxyNode(p));
  EXPECT_EQ(nodes.size(), 21u);
}

TEST(NetworkTest, BarabasiAlbertModelWorks) {
  Rng rng(9);
  NetworkParams params;
  params.numProxies = 30;
  params.model = TopologyModel::kBarabasiAlbert;
  const Network net(params, rng);
  EXPECT_EQ(net.numProxies(), 30u);
  for (ProxyId p = 0; p < 30; ++p) EXPECT_GT(net.fetchCost(p), 0.0);
}

TEST(NetworkTest, RejectsZeroProxies) {
  Rng rng(1);
  EXPECT_THROW(Network(NetworkParams{.numProxies = 0}, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace pscd
