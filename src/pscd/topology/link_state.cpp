#include "pscd/topology/link_state.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "pscd/topology/shortest_path.h"
#include "pscd/util/check.h"
#include "pscd/util/hot.h"

namespace pscd {

LinkState::LinkState(const Network& network)
    : network_(&network), proxyDownMask_(network.numProxies(), 0) {
  const Graph& g = network.graph();
  slotBase_.reserve(g.numNodes() + std::size_t{1});
  slotBase_.push_back(0);
  for (NodeId n = 0; n < g.numNodes(); ++n) {
    slotBase_.push_back(slotBase_.back() + g.degree(n));
  }
  slotDown_.assign(slotBase_.back(), 0);
}

LinkState::LinkKey LinkState::linkKey(NodeId a, NodeId b) {
  return a < b ? LinkKey{a, b} : LinkKey{b, a};
}

void LinkState::markLink(std::vector<std::uint8_t>& mask, NodeId a, NodeId b,
                         std::uint8_t flag) const {
  const Graph& g = network_->graph();
  for (const auto& [from, to] : {LinkKey{a, b}, LinkKey{b, a}}) {
    const std::span<const Graph::Edge> edges = g.neighbors(from);
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (edges[i].to == to) mask[slotBase_[from] + i] = flag;
    }
  }
}

bool LinkState::movesResidual(NodeId a, NodeId b, bool down) const {
  if (residualDirty_) return true;
  const Graph& g = network_->graph();
  for (const auto& [from, to] : {LinkKey{a, b}, LinkKey{b, a}}) {
    for (const Graph::Edge& e : g.neighbors(from)) {
      if (e.to != to) continue;
      const double via = residualDist_[from] + e.weight;
      // pscd-lint: allow(float-compare) exact: a tight edge is one the Dijkstra's own sum lands on
      if (down ? via == residualDist_[to] : via < residualDist_[to]) {
        return true;
      }
    }
  }
  return false;
}

void LinkState::setLinkDown(NodeId a, NodeId b) {
  PSCD_CHECK(network_->graph().hasEdge(a, b))
      << "LinkState: no seed link " << a << " <-> " << b << " to fail";
  if (linkDown(a, b)) return;
  downLinks_.push_back(linkKey(a, b));
  markLink(slotDown_, a, b, 1);
  if (movesResidual(a, b, /*down=*/true)) residualDirty_ = true;
}

void LinkState::setLinkUp(NodeId a, NodeId b) {
  PSCD_CHECK(network_->graph().hasEdge(a, b))
      << "LinkState: no seed link " << a << " <-> " << b << " to restore";
  if (!linkDown(a, b)) return;
  const auto it = std::find(downLinks_.begin(), downLinks_.end(),
                            linkKey(a, b));
  *it = downLinks_.back();
  downLinks_.pop_back();
  markLink(slotDown_, a, b, 0);
  if (movesResidual(a, b, /*down=*/false)) residualDirty_ = true;
}

PSCD_HOT bool LinkState::linkDown(NodeId a, NodeId b) const {
  if (a >= network_->graph().numNodes()) return false;
  const std::span<const Graph::Edge> edges = network_->graph().neighbors(a);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (edges[i].to == b) return slotDown_[slotBase_[a] + i] != 0;
  }
  return false;
}

void LinkState::setProxyDown(ProxyId proxy) {
  PSCD_CHECK_LT(proxy, proxyDownMask_.size())
      << "LinkState: proxy off the overlay";
  if (!proxyDownMask_[proxy]) {
    proxyDownMask_[proxy] = 1;
    ++downProxies_;
  }
}

void LinkState::setProxyUp(ProxyId proxy) {
  PSCD_CHECK_LT(proxy, proxyDownMask_.size())
      << "LinkState: proxy off the overlay";
  if (proxyDownMask_[proxy]) {
    proxyDownMask_[proxy] = 0;
    --downProxies_;
  }
}

PSCD_HOT bool LinkState::proxyDown(ProxyId proxy) const {
  PSCD_CHECK_LT(proxy, proxyDownMask_.size())
      << "LinkState: proxy off the overlay";
  return proxyDownMask_[proxy] != 0;
}

PSCD_HOT void LinkState::refreshResidual() const {
  if (!residualDirty_) return;
  residualDist_ = shortestPaths(network_->graph(), network_->publisherNode(),
                                slotBase_, slotDown_);
  const double mean = network_->normalizationMean();
  residualCost_.resize(network_->numProxies());
  for (ProxyId p = 0; p < network_->numProxies(); ++p) {
    const double d = residualDist_[network_->proxyNode(p)];
    residualCost_[p] = std::isfinite(d) ? std::max(d / mean, 0.01) : d;
  }
  residualDirty_ = false;
}

PSCD_HOT double LinkState::fetchCost(ProxyId proxy) const {
  PSCD_CHECK_LT(proxy, proxyDownMask_.size())
      << "LinkState: proxy off the overlay";
  if (downLinks_.empty()) return network_->fetchCost(proxy);  // seed fast path
  refreshResidual();
  return residualCost_[proxy];
}

PSCD_HOT bool LinkState::pathToPublisher(ProxyId proxy) const {
  return std::isfinite(fetchCost(proxy));
}

PSCD_HOT bool LinkState::reachable(ProxyId proxy) const {
  return !proxyDown(proxy) && pathToPublisher(proxy);
}

void LinkState::checkInvariants() const {
  PSCD_CHECK_EQ(proxyDownMask_.size(), network_->numProxies())
      << "LinkState: proxy mask size drifted from the network";
  std::uint32_t down = 0;
  // Named `bit`, not `d`: this file declares double `d` elsewhere and
  // pscd-lint's declaration harvest is name-based, not type-resolved.
  for (const std::uint8_t bit : proxyDownMask_) down += bit != 0 ? 1 : 0;
  PSCD_CHECK_EQ(down, downProxies_)
      << "LinkState: down-proxy counter disagrees with the mask";
  // Rebuild the slot mask from the down-link list and require the kept
  // one to match it; the residual check below then runs on the rebuilt
  // mask, not on the one it validates.
  std::vector<std::uint8_t> mask(slotDown_.size(), 0);
  for (const auto& [a, b] : downLinks_) {
    PSCD_CHECK_LT(a, b) << "LinkState: unnormalized down-link key";
    PSCD_CHECK(network_->graph().hasEdge(a, b))
        << "LinkState: down link " << a << " <-> " << b
        << " does not exist in the seed graph";
    markLink(mask, a, b, 1);
  }
  std::vector<LinkKey> sorted = downLinks_;
  std::sort(sorted.begin(), sorted.end());
  PSCD_CHECK(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end())
      << "LinkState: a down link is listed twice";
  PSCD_CHECK(mask == slotDown_)
      << "LinkState: slot mask disagrees with the down-link list";
  if (!downLinks_.empty() && !residualDirty_) {
    // The cached residual costs must match a fresh damaged-graph run,
    // finite exactly for the proxies still connected to the publisher.
    const std::vector<double> dist = shortestPaths(
        network_->graph(), network_->publisherNode(), slotBase_, mask);
    PSCD_CHECK_EQ(residualCost_.size(), network_->numProxies())
        << "LinkState: residual cost vector size drifted";
    for (ProxyId p = 0; p < network_->numProxies(); ++p) {
      const double d = dist[network_->proxyNode(p)];
      PSCD_CHECK_EQ(std::isfinite(residualCost_[p]), std::isfinite(d))
          << "LinkState: proxy " << p
          << " residual reachability disagrees with the damaged graph";
      if (!std::isfinite(d)) continue;
      const double expected =
          std::max(d / network_->normalizationMean(), 0.01);
      PSCD_CHECK(std::abs(residualCost_[p] - expected) <=
                 1e-9 * (1.0 + expected))
          << "LinkState: stale residual cost for proxy " << p;
    }
  }
}

}  // namespace pscd
