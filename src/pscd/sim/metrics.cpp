#include "pscd/sim/metrics.h"

#include <limits>
#include <stdexcept>

namespace pscd {

SimMetrics::SimMetrics(std::uint32_t numProxies, std::size_t hours)
    : proxyRequests_(numProxies, 0), proxyHits_(numProxies, 0) {
  if (hours > 0) {
    hourlyHits_.emplace(hours);
    hourlyPages_.emplace(hours);
    hourlyBytes_.emplace(hours);
  }
}

void SimMetrics::recordRequest(const RequestDelivery& d) {
  if (d.proxy >= proxyRequests_.size()) {
    throw std::out_of_range("SimMetrics::recordRequest: proxy out of range");
  }
  ++requests_;
  ++proxyRequests_[d.proxy];
  retries_ += d.retries;
  if (d.unavailable) ++unavailable_;
  if (d.servedStale) ++staleServes_;
  if (d.failover) ++failovers_;
  // A publisher fetch happened only when the request missed AND was
  // actually served with fresh bytes (stale serving reuses the local
  // copy; an unavailable request transferred nothing).
  const bool served = !d.unavailable;
  const bool fetched = !d.hit && served && !d.servedStale;
  if (served) responseTimeSum_ += d.responseTimeMs;
  if (d.hit) {
    ++hits_;
    ++proxyHits_[d.proxy];
  } else if (fetched) {
    ++traffic_.fetchPages;
    traffic_.fetchBytes += d.bytesTransferred;
  }
  if (d.stale) ++staleMisses_;
  if (hourlyHits_) {
    hourlyHits_->add(d.time, d.hit ? 1.0 : 0.0, 1.0);
    if (fetched) {
      hourlyPages_->add(d.time, 1.0);
      hourlyBytes_->add(d.time, static_cast<double>(d.bytesTransferred));
    }
  }
}

void SimMetrics::recordPush(const PushDelivery& d) {
  traffic_.pushPages += d.pages;
  traffic_.pushBytes += d.bytes;
  traffic_.lostPushPages += d.pagesLost;
  traffic_.lostPushBytes += d.bytesLost;
  if (hourlyPages_) {
    hourlyPages_->add(d.time, static_cast<double>(d.pages));
    hourlyBytes_->add(d.time, static_cast<double>(d.bytes));
  }
}

double SimMetrics::hitRatio() const {
  return requests_ > 0 ? static_cast<double>(hits_) / requests_ : 0.0;
}

double SimMetrics::meanResponseTime() const {
  const std::uint64_t served = servedRequests();
  return served > 0 ? responseTimeSum_ / static_cast<double>(served) : 0.0;
}

double SimMetrics::availability() const {
  return requests_ > 0
             ? static_cast<double>(servedRequests()) / requests_
             : 1.0;
}

double SimMetrics::staleServeRate() const {
  const std::uint64_t served = servedRequests();
  return served > 0 ? static_cast<double>(staleServes_) / served : 0.0;
}

double SimMetrics::retriesPerRequest() const {
  return requests_ > 0 ? static_cast<double>(retries_) / requests_ : 0.0;
}

double SimMetrics::unavailabilityWeightedBytes() const {
  const double total = static_cast<double>(traffic_.totalBytes()) +
                       static_cast<double>(traffic_.lostPushBytes);
  // pscd-lint: allow(float-compare) exact-zero guards before division
  if (total == 0.0) return 0.0;
  const double a = availability();
  // pscd-lint: allow(float-compare) exact-zero guards before division
  if (a == 0.0) return std::numeric_limits<double>::infinity();
  return total / a;
}

double SimMetrics::proxyHitRatio(ProxyId proxy) const {
  if (proxy >= proxyRequests_.size()) {
    throw std::out_of_range("SimMetrics::proxyHitRatio: proxy out of range");
  }
  return proxyRequests_[proxy] > 0
             ? static_cast<double>(proxyHits_[proxy]) / proxyRequests_[proxy]
             : 0.0;
}

double SimMetrics::hourlyHitRatio(std::size_t hour) const {
  if (!hourlyHits_) throw std::logic_error("SimMetrics: hourly disabled");
  return hourlyHits_->ratio(hour);
}

double SimMetrics::hourlyTrafficPages(std::size_t hour) const {
  if (!hourlyPages_) throw std::logic_error("SimMetrics: hourly disabled");
  return hourlyPages_->numerator(hour);
}

Bytes SimMetrics::hourlyTrafficBytes(std::size_t hour) const {
  if (!hourlyBytes_) throw std::logic_error("SimMetrics: hourly disabled");
  return static_cast<Bytes>(hourlyBytes_->numerator(hour));
}

std::size_t SimMetrics::hours() const {
  return hourlyHits_ ? hourlyHits_->hours() : 0;
}

}  // namespace pscd
