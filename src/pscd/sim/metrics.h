// Simulation metrics: the global hit ratio H over all proxies (eq. 8),
// per-proxy hit ratios, and the publisher->proxy traffic split into push
// transfers and miss fetches, with hourly series for figures 6 and 7.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "pscd/core/runtime.h"
#include "pscd/util/stats.h"
#include "pscd/util/types.h"

namespace pscd {

struct TrafficTotals {
  std::uint64_t pushPages = 0;
  Bytes pushBytes = 0;
  std::uint64_t fetchPages = 0;
  Bytes fetchBytes = 0;
  /// Push transfers that never arrived (failure layer); the bytes were
  /// sent by the publisher but wasted. Not part of totalBytes().
  std::uint64_t lostPushPages = 0;
  Bytes lostPushBytes = 0;

  std::uint64_t totalPages() const { return pushPages + fetchPages; }
  Bytes totalBytes() const { return pushBytes + fetchBytes; }
};

class SimMetrics {
 public:
  /// hours > 0 enables the hourly series.
  SimMetrics(std::uint32_t numProxies, std::size_t hours);

  /// Folds in one request's answer. responseTimeMs is the user-
  /// perceived latency under the service's latency model; an
  /// unavailable request has none and adds nothing to the mean.
  void recordRequest(const RequestDelivery& d);
  void recordPush(const PushDelivery& d);

  std::uint64_t requests() const { return requests_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t staleMisses() const { return staleMisses_; }

  /// Failure-layer counters (all zero on a fault-free run).
  std::uint64_t staleServes() const { return staleServes_; }
  std::uint64_t failovers() const { return failovers_; }
  std::uint64_t unavailableRequests() const { return unavailable_; }
  std::uint64_t totalRetries() const { return retries_; }
  std::uint64_t servedRequests() const { return requests_ - unavailable_; }

  /// Fraction of requests that received *any* response — fresh, stale
  /// or failover (1 when no requests were issued).
  double availability() const;
  /// Fraction of served requests answered with a stale copy after the
  /// publisher fetch was abandoned.
  double staleServeRate() const;
  /// Mean failed-then-retried fetch attempts per request.
  double retriesPerRequest() const;

  /// Global hit ratio H in [0, 1]; 0 when no requests were issued.
  double hitRatio() const;
  double proxyHitRatio(ProxyId proxy) const;

  /// Mean user-perceived response time over the *served* requests (the
  /// paper's motivating metric: "a high hit ratio in a local server
  /// generally means a smaller response time"). Unavailable requests
  /// have no response and are excluded; on a fault-free run every
  /// request is served, so the value is unchanged from the
  /// pre-failure-layer definition.
  double meanResponseTime() const;

  const TrafficTotals& traffic() const { return traffic_; }

  /// Publisher->proxy traffic weighted by unavailability: total bytes
  /// (including lost pushes) divided by availability, so a scheme
  /// cannot look cheap by simply failing its users. +infinity when
  /// traffic flowed but no request was ever served.
  double unavailabilityWeightedBytes() const;

  bool hasHourly() const { return hourlyHits_.has_value(); }
  /// Hit ratio of one hour (fig. 6).
  double hourlyHitRatio(std::size_t hour) const;
  /// Pages transferred publisher->proxies in one hour (fig. 7).
  double hourlyTrafficPages(std::size_t hour) const;
  Bytes hourlyTrafficBytes(std::size_t hour) const;
  std::size_t hours() const;

 private:
  std::uint64_t requests_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t staleMisses_ = 0;
  std::uint64_t staleServes_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t unavailable_ = 0;
  std::uint64_t retries_ = 0;
  double responseTimeSum_ = 0.0;
  TrafficTotals traffic_;
  std::vector<std::uint64_t> proxyRequests_;
  std::vector<std::uint64_t> proxyHits_;
  std::optional<HourlySeries> hourlyHits_;     // hits / requests
  std::optional<HourlySeries> hourlyPages_;    // push+fetch pages
  std::optional<HourlySeries> hourlyBytes_;    // push+fetch bytes
};

}  // namespace pscd
