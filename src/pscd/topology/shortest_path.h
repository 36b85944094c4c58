// Single-source shortest paths (Dijkstra) over the overlay graph; used to
// derive the publisher->proxy fetch costs c(p).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pscd/topology/graph.h"

namespace pscd {

/// Distances from src to every node; unreachable nodes get +infinity.
std::vector<double> shortestPaths(const Graph& g, NodeId src);

/// Residual-graph variant for the failure layer. Adjacency slots are
/// numbered node-major: node n's i-th neighbors() entry is slot
/// slotBase[n] + i (slotBase has numNodes() + 1 entries), and a slot
/// whose slotDown flag is nonzero is treated as removed. With no flag
/// set the result equals shortestPaths(g, src) exactly — same
/// relaxation order, same float arithmetic.
std::vector<double> shortestPaths(const Graph& g, NodeId src,
                                  std::span<const std::uint32_t> slotBase,
                                  std::span<const std::uint8_t> slotDown);

/// Validates a distance vector as a shortest-path solution for (g, src):
/// dist[src] == 0, every edge satisfies the relaxation inequality
/// dist[v] <= dist[u] + w, and every finite non-source distance is
/// witnessed by a tight incoming edge (the Dijkstra tree property).
/// Throws CheckFailure on any violation.
void checkShortestPathTree(const Graph& g, NodeId src,
                           std::span<const double> dist);

}  // namespace pscd
