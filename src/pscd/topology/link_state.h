// Dynamic link-state overlay on the immutable seed Network: the failure
// layer marks proxies crashed and links down/up during a simulation, and
// this class answers residual reachability and fetch-cost queries
// against the damaged topology. While no link is down every query hits
// the seed fast path (the exact doubles stored in Network), so a
// fault-free run is bit-identical to one that never constructed an
// overlay; once links fail, residual shortest paths are recomputed
// lazily under the seed normalization constant, and proxies partitioned
// from the publisher get c(p) = +infinity.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "pscd/topology/network.h"
#include "pscd/util/types.h"

namespace pscd {

class LinkState {
 public:
  /// The network must outlive the overlay.
  explicit LinkState(const Network& network);

  const Network& network() const { return *network_; }

  /// Marks the undirected edge {a, b} down / back up. The edge must
  /// exist in the seed graph; marking twice is idempotent.
  void setLinkDown(NodeId a, NodeId b);
  void setLinkUp(NodeId a, NodeId b);
  bool linkDown(NodeId a, NodeId b) const;
  std::size_t downLinkCount() const { return downLinks_.size(); }

  /// Marks the proxy process crashed / restarted. A crashed proxy
  /// serves no requests and receives no pushes; its fetch cost is
  /// unaffected (the path may be intact even while the process is down).
  void setProxyDown(ProxyId proxy);
  void setProxyUp(ProxyId proxy);
  bool proxyDown(ProxyId proxy) const;
  std::uint32_t downProxyCount() const { return downProxies_; }

  /// True when any link is currently down (the residual recompute is
  /// only ever needed in this state).
  bool anyLinkDown() const { return !downLinks_.empty(); }

  /// Residual publisher -> proxy fetch cost: the seed cost while no
  /// link is down, otherwise the damaged-graph shortest path divided by
  /// the seed normalization mean (floored at 0.01 like the seed costs);
  /// +infinity when the proxy is partitioned from the publisher.
  double fetchCost(ProxyId proxy) const;

  /// True when the proxy process is up AND a residual publisher path
  /// exists. The publisher itself never crashes in this model (the
  /// paper's publisher is the source of truth); total publisher loss is
  /// expressed as partitioning every proxy.
  bool reachable(ProxyId proxy) const;

  /// True when a residual publisher -> proxy path exists, regardless of
  /// the proxy process state (used for direct-to-publisher failover).
  bool pathToPublisher(ProxyId proxy) const;

  /// Validates the overlay against the seed network: down links all
  /// exist in the seed graph, the down-proxy counter matches the mask,
  /// and the cached residual costs (when valid) equal a fresh
  /// damaged-graph recompute — finite exactly for connected proxies.
  /// Throws CheckFailure on any violation.
  void checkInvariants() const;

 private:
  friend class InvariantCorrupter;  // test-only state corruption hook

  using LinkKey = std::pair<NodeId, NodeId>;  // normalized a < b

  static LinkKey linkKey(NodeId a, NodeId b);
  /// Sets every adjacency slot of the link {a, b}, in both directions,
  /// to `flag` in `mask`.
  void markLink(std::vector<std::uint8_t>& mask, NodeId a, NodeId b,
                std::uint8_t flag) const;
  /// Whether taking the link {a, b} down (`down`) or bringing it up can
  /// move a residual distance. Down: only if some distance runs through
  /// it, d(a) + w == d(b). Up: only if it offers a shorter way,
  /// d(a) + w < d(b). Either way in both directions, in the same float
  /// arithmetic as the Dijkstra, so a skipped recompute would have
  /// returned the very same doubles.
  bool movesResidual(NodeId a, NodeId b, bool down) const;
  /// Recomputes residualDist_ and residualCost_ from the damaged graph
  /// if stale.
  void refreshResidual() const;

  const Network* network_;
  std::vector<std::uint8_t> proxyDownMask_;
  std::uint32_t downProxies_ = 0;
  /// The down links, each once. The residual Dijkstra reads slotDown_
  /// instead: node n's i-th neighbor entry is slot slotBase_[n] + i, and
  /// both slots of every down link are flagged.
  std::vector<LinkKey> downLinks_;
  std::vector<std::uint32_t> slotBase_;
  std::vector<std::uint8_t> slotDown_;

  /// Lazily maintained residual publisher distances (per node) and
  /// costs (per proxy); only consulted while a link is down.
  /// `residualDirty_` starts set and is set by every link toggle that
  /// can move a distance.
  mutable bool residualDirty_ = true;
  mutable std::vector<double> residualDist_;
  mutable std::vector<double> residualCost_;
};

}  // namespace pscd
