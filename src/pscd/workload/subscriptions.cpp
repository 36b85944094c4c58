#include "pscd/workload/subscriptions.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "pscd/util/distributions.h"

namespace pscd {

SubscriptionTable generateSubscriptions(
    const SubscriptionParams& params,
    const std::vector<RequestEvent>& requests, std::uint32_t numPages,
    std::uint32_t numProxies, Rng& rng) {
  if (params.quality <= 0 || params.quality > 1) {
    throw std::invalid_argument("generateSubscriptions: SQ must be in (0,1]");
  }

  // P_{i,j}: requests of page i from proxy j (notification-driven only).
  std::vector<std::uint32_t> counts(static_cast<std::size_t>(numPages) *
                                    numProxies);
  for (const RequestEvent& r : requests) {
    if (!r.notificationDriven) continue;
    if (r.page >= numPages || r.proxy >= numProxies) {
      throw std::out_of_range("generateSubscriptions: event out of range");
    }
    ++counts[static_cast<std::size_t>(r.page) * numProxies + r.proxy];
  }

  const double sq = params.quality;
  SubscriptionTable table;
  table.offsets.resize(numPages + 1, 0);
  for (PageId page = 0; page < numPages; ++page) {
    table.offsets[page] = static_cast<std::uint32_t>(table.entries.size());
    for (ProxyId proxy = 0; proxy < numProxies; ++proxy) {
      const std::uint32_t p =
          counts[static_cast<std::size_t>(page) * numProxies + proxy];
      if (p == 0) continue;
      // Eq. 7: SQ_{i,j} uniform in [2SQ-1, 1] when SQ > 0.5, else in
      // [0, 2SQ] (clamped away from 0).
      const double sqij =
          sq > 0.5 ? rng.uniform(2.0 * sq - 1.0, 1.0)
                   : std::max(rng.uniform(0.0, 2.0 * sq), params.minQuality);
      const auto subs = static_cast<std::uint32_t>(std::max<std::int64_t>(
          1, std::lround(static_cast<double>(p) / sqij)));
      table.entries.push_back({proxy, subs});
    }
  }
  table.offsets[numPages] = static_cast<std::uint32_t>(table.entries.size());
  return table;
}

std::vector<SubscriptionChurnEvent> generateSubscriptionChurn(
    const SubscriptionParams& params, const SubscriptionTable& table,
    const std::vector<PageInfo>& pages, double zipfAlpha, SimTime horizon,
    Rng& rng) {
  if (params.churnPerDay < 0) {
    throw std::invalid_argument("generateSubscriptionChurn: negative rate");
  }
  std::vector<SubscriptionChurnEvent> events;
  // pscd-lint: allow(float-compare) 0.0 is the exact "disabled" sentinel
  if (params.churnPerDay == 0.0 || table.entries.empty()) return events;

  std::uint64_t totalSubs = 0;
  for (const auto& e : table.entries) totalSubs += e.matchCount;
  const auto numEvents = static_cast<std::uint64_t>(
      params.churnPerDay * static_cast<double>(totalSubs) *
      (horizon / kDay));

  // Source sampling: entries weighted by their subscription count.
  std::vector<double> sourceWeight(table.entries.size());
  for (std::size_t i = 0; i < table.entries.size(); ++i) {
    sourceWeight[i] = table.entries[i].matchCount;
  }
  const DiscreteSampler sourceSampler(sourceWeight);

  // Target sampling: pages weighted by Zipf popularity (users migrate
  // toward what is popular).
  std::vector<double> targetWeight(pages.size());
  for (std::size_t p = 0; p < pages.size(); ++p) {
    targetWeight[p] =
        std::pow(static_cast<double>(pages[p].popularityRank), -zipfAlpha);
  }
  const DiscreteSampler targetSampler(targetWeight);

  // Map each source entry back to its page via the CSR offsets.
  std::vector<PageId> entryPage(table.entries.size());
  for (PageId page = 0; page + 1 < table.offsets.size(); ++page) {
    for (std::uint32_t k = table.offsets[page]; k < table.offsets[page + 1];
         ++k) {
      entryPage[k] = page;
    }
  }

  events.reserve(numEvents);
  for (std::uint64_t i = 0; i < numEvents; ++i) {
    const std::uint32_t source = sourceSampler.sample(rng);
    SubscriptionChurnEvent ev;
    ev.time = rng.uniform(0.0, horizon);
    ev.proxy = table.entries[source].proxy;
    ev.fromPage = entryPage[source];
    ev.toPage = targetSampler.sample(rng);
    events.push_back(ev);
  }
  // A full key, so equal times keep one order whatever the standard
  // library's sort does with ties.
  std::sort(events.begin(), events.end(),
            [](const SubscriptionChurnEvent& a,
               const SubscriptionChurnEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.proxy != b.proxy) return a.proxy < b.proxy;
              if (a.fromPage != b.fromPage) return a.fromPage < b.fromPage;
              return a.toPage < b.toPage;
            });
  return events;
}

}  // namespace pscd
