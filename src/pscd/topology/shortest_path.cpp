#include "pscd/topology/shortest_path.h"

#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>

#include "pscd/util/check.h"

namespace pscd {

namespace {

/// Skip = anything callable as bool(NodeId n, std::size_t i), asked
/// whether node n's i-th adjacency entry is removed; the unfiltered
/// entry point instantiates it with a no-op lambda.
template <typename Skip>
std::vector<double> dijkstra(const Graph& g, NodeId src, Skip&& skipSlot) {
  if (src >= g.numNodes()) {
    throw std::out_of_range("shortestPaths: src out of range");
  }
  std::vector<double> dist(g.numNodes(),
                           std::numeric_limits<double>::infinity());
  using Item = std::pair<double, NodeId>;  // (distance, node)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[src] = 0.0;
  pq.emplace(0.0, src);
  while (!pq.empty()) {
    const auto [d, n] = pq.top();
    pq.pop();
    if (d > dist[n]) continue;  // stale entry
    const std::span<const Graph::Edge> edges = g.neighbors(n);
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (skipSlot(n, i)) continue;
      const Graph::Edge& e = edges[i];
      const double nd = d + e.weight;
      if (nd < dist[e.to]) {
        dist[e.to] = nd;
        pq.emplace(nd, e.to);
      }
    }
  }
  return dist;
}

}  // namespace

std::vector<double> shortestPaths(const Graph& g, NodeId src) {
  return dijkstra(g, src, [](NodeId, std::size_t) { return false; });
}

std::vector<double> shortestPaths(const Graph& g, NodeId src,
                                  std::span<const std::uint32_t> slotBase,
                                  std::span<const std::uint8_t> slotDown) {
  PSCD_CHECK(slotBase.size() == g.numNodes() + std::size_t{1} &&
             slotDown.size() == slotBase.back())
      << "shortestPaths: slot mask does not cover the graph";
  return dijkstra(g, src, [&](NodeId n, std::size_t i) {
    return slotDown[slotBase[n] + i] != 0;
  });
}

void checkShortestPathTree(const Graph& g, NodeId src,
                           std::span<const double> dist) {
  PSCD_CHECK_EQ(dist.size(), g.numNodes())
      << "shortest-path check: one distance per node required";
  PSCD_CHECK_LT(src, g.numNodes()) << "shortest-path check: bad source";
  PSCD_CHECK_EQ(dist[src], 0.0) << "shortest-path check: nonzero source";
  // Relative tolerance for the float additions along a path.
  constexpr double kEps = 1e-9;
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    PSCD_CHECK(dist[u] >= 0.0) << "shortest-path check: negative distance";
    if (std::isinf(dist[u])) continue;
    const double slack = kEps * (1.0 + dist[u]);
    for (const Graph::Edge& e : g.neighbors(u)) {
      PSCD_CHECK_LE(dist[e.to], dist[u] + e.weight + slack)
          << "shortest-path check: relaxable edge " << u << " -> " << e.to;
    }
    if (u == src) continue;
    // Tree property: some neighbor must witness this distance exactly.
    bool witnessed = false;
    for (const Graph::Edge& e : g.neighbors(u)) {
      if (std::abs(dist[e.to] + e.weight - dist[u]) <= slack) {
        witnessed = true;
        break;
      }
    }
    PSCD_CHECK(witnessed)
        << "shortest-path check: node " << u << " has no tight predecessor";
  }
}

}  // namespace pscd
