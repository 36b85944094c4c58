#include "pscd/workload/workload.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "pscd/util/rng.h"
#include "pscd/workload/publishing.h"
#include "pscd/workload/requests.h"
#include "pscd/workload/subscriptions.h"

namespace pscd {

WorkloadParams newsTraceParams() {
  WorkloadParams p;
  p.request.zipfAlpha = 1.5;
  return p;
}

WorkloadParams alternativeTraceParams() {
  WorkloadParams p;
  p.request.zipfAlpha = 1.0;
  return p;
}

std::span<const Notification> Workload::subscriptions(PageId page) const {
  if (page >= numPages()) {
    throw std::out_of_range("Workload::subscriptions: page out of range");
  }
  return {subEntries.data() + subOffsets[page],
          subEntries.data() + subOffsets[page + 1]};
}

std::uint32_t Workload::subscriptionCount(PageId page, ProxyId proxy) const {
  const auto row = subscriptions(page);
  const auto it = std::lower_bound(
      row.begin(), row.end(), proxy,
      [](const Notification& n, ProxyId p) { return n.proxy < p; });
  return (it != row.end() && it->proxy == proxy) ? it->matchCount : 0;
}

std::uint64_t Workload::totalSubscriptions() const {
  std::uint64_t total = 0;
  for (const auto& e : subEntries) total += e.matchCount;
  return total;
}

void Workload::validate() const {
  if (!std::isfinite(params.publishing.horizon) ||
      params.publishing.horizon < 0.0) {
    throw std::logic_error("Workload: horizon not finite");
  }
  if (pages.size() != params.publishing.numPages) {
    throw std::logic_error("Workload: page count mismatch");
  }
  for (const auto& p : pages) {
    if (!std::isfinite(p.firstPublish) || p.firstPublish < 0.0) {
      throw std::logic_error("Workload: page firstPublish not finite");
    }
    if (!std::isfinite(p.modificationInterval) ||
        p.modificationInterval < 0.0) {
      throw std::logic_error(
          "Workload: page modificationInterval not finite");
    }
    if (p.numVersions < 1) {
      throw std::logic_error("Workload: page numVersions < 1");
    }
  }
  if (subOffsets.size() != pages.size() + 1 ||
      subOffsets.back() != subEntries.size() || subOffsets.front() != 0) {
    throw std::logic_error("Workload: CSR shape invalid");
  }
  for (std::size_t i = 0; i + 1 < subOffsets.size(); ++i) {
    if (subOffsets[i] > subOffsets[i + 1]) {
      throw std::logic_error("Workload: CSR offsets not monotone");
    }
    for (std::uint32_t k = subOffsets[i]; k + 1 < subOffsets[i + 1]; ++k) {
      if (subEntries[k].proxy >= subEntries[k + 1].proxy) {
        throw std::logic_error("Workload: CSR row not sorted by proxy");
      }
    }
  }
  const SimTime horizon = params.publishing.horizon;
  SimTime prev = 0.0;
  for (const auto& e : publishes) {
    // NaN compares false against every bound, so reject it explicitly.
    if (!std::isfinite(e.time) || e.time < prev || e.time > horizon ||
        e.page >= numPages()) {
      throw std::logic_error("Workload: bad publish event");
    }
    prev = e.time;
  }
  prev = 0.0;
  for (const auto& r : requests) {
    if (!std::isfinite(r.time) || r.time < prev || r.time > horizon ||
        r.page >= numPages() || r.proxy >= numProxies()) {
      throw std::logic_error("Workload: bad request event");
    }
    if (r.time < pages[r.page].firstPublish) {
      throw std::logic_error("Workload: request precedes first publish");
    }
    prev = r.time;
  }
  if (uniqueBytesRequested.size() != numProxies()) {
    throw std::logic_error("Workload: uniqueBytesRequested size mismatch");
  }
  prev = 0.0;
  for (const auto& c : churn) {
    if (!std::isfinite(c.time) || c.time < prev || c.time > horizon ||
        c.proxy >= numProxies() || c.fromPage >= numPages() ||
        c.toPage >= numPages()) {
      throw std::logic_error("Workload: bad churn event");
    }
    prev = c.time;
  }
}

Workload buildWorkload(const WorkloadParams& params) {
  Rng master(params.seed);
  // Independent streams per component: tweaking one generator does not
  // perturb the randomness of the others.
  Rng publishRng = master.split();
  Rng requestRng = master.split();
  Rng subscriptionRng = master.split();

  Workload w;
  w.params = params;

  PublishingStream publishing = generatePublishing(
      params.publishing, params.request.zipfAlpha,
      params.request.updatedPopularityBias, publishRng);
  w.pages = std::move(publishing.pages);
  w.publishes = std::move(publishing.events);

  w.requests = generateRequests(params.request, params.publishing.horizon,
                                w.pages, requestRng);

  SubscriptionTable subs = generateSubscriptions(
      params.subscription, w.requests, w.numPages(), w.numProxies(),
      subscriptionRng);
  w.churn = generateSubscriptionChurn(params.subscription, subs, w.pages,
                                      params.request.zipfAlpha,
                                      params.publishing.horizon,
                                      subscriptionRng);
  w.subOffsets = std::move(subs.offsets);
  w.subEntries = std::move(subs.entries);

  // Unique bytes requested per proxy (for the capacity settings): the
  // total size of the distinct pages each proxy requests over the whole
  // trace, as in section 5.1. One bit per (page, proxy) pair marks the
  // pairs already counted.
  w.uniqueBytesRequested.assign(w.numProxies(), 0);
  std::vector<bool> seen(static_cast<std::size_t>(w.numPages()) *
                         w.numProxies());
  for (const RequestEvent& r : w.requests) {
    const std::size_t pair =
        static_cast<std::size_t>(r.page) * w.numProxies() + r.proxy;
    if (!seen[pair]) {
      seen[pair] = true;
      w.uniqueBytesRequested[r.proxy] += w.pages[r.page].size;
    }
  }
  return w;
}

}  // namespace pscd
