// match-churn: an in-process Broker holding 10^5 predicate subscriptions
// over 100 proxies. The measure phase alternates one publish (match plus
// per-proxy fan-out) with one churn (unsubscribe the oldest live
// subscription, subscribe a fresh one), so the counting matcher's index
// stays at 10^5 live entries while its lazy deletions pile up.
//
// Why: the counting matcher does almost all the work here; serve-mixed
// and sim-news use only page-exact aggregated subscriptions and leave
// its index empty. Churn beside publishes shows lazy-deletion growth and
// any matcher speed-up that is paid for in subscribe cost.
//
// Correctness: a ReferenceMatcher (src/pscd/oracle/) receives the same
// subscribe/unsubscribe stream, outside the timed region, and every
// kCheckEvery-th publish must produce its exact per-proxy counts.
#include <algorithm>
#include <deque>
#include <memory>
#include <string>

#include "common.h"
#include "pscd/oracle/reference_matcher.h"
#include "pscd/pubsub/broker.h"
#include "pscd/util/distributions.h"
#include "pscd/util/rng.h"
#include "pscd/workload/params.h"

namespace perfbench {
namespace {

using namespace pscd;

/// Set-ups per run (setup_s is their median; a set-up takes ~10 ms).
constexpr int kSetups = 21;

constexpr std::uint32_t kProxies = 100;
constexpr std::uint64_t kSubscriptions = 100000;
constexpr std::uint32_t kCategories = 50;
constexpr std::uint32_t kKeywords = 200;
/// Publishes between two oracle comparisons.
constexpr std::uint64_t kCheckEvery = 64;
/// traffic_mb covers this fixed prefix of the publish stream, which
/// every run completes, so it does not scale with throughput.
constexpr std::uint64_t kTrafficPublishes = 10000;
/// Memory grows with every churn (lazy deletion, and the oracle's
/// history), so peak_rss_mb and pubsub.rss_growth_mb are read when the
/// run reaches this many churns, which every run does: read at the end,
/// a faster matcher would churn more and look like a memory regression.
constexpr std::uint64_t kMemoryChurns = 100000;
/// Trace mode alternates untraced and traced slots of this length, so
/// both see the same index growth and the overhead compares like with
/// like.
constexpr std::int64_t kSlotNs = 50'000'000;
/// Throughput and publish latency are taken per window of this length
/// and the median over the windows is reported.
constexpr std::int64_t kWindowNs = 500'000'000;

/// Same shape as bench_micro's: a category-equality conjunct and, half
/// the time, a keyword-contains conjunct.
Subscription randomSubscription(Rng& rng) {
  Subscription s;
  s.proxy = static_cast<ProxyId>(rng.uniformInt(std::uint64_t{kProxies}));
  s.conjuncts.push_back(
      {Predicate::Kind::kCategoryEq,
       static_cast<std::uint32_t>(rng.uniformInt(std::uint64_t{kCategories}))});
  if (rng.bernoulli(0.5)) {
    s.conjuncts.push_back({Predicate::Kind::kKeywordContains,
                           static_cast<std::uint32_t>(
                               rng.uniformInt(std::uint64_t{kKeywords}))});
  }
  return s;
}

ContentAttributes randomEvent(Rng& rng) {
  ContentAttributes attrs;
  attrs.page = static_cast<PageId>(rng.uniformInt(std::uint64_t{1000}));
  attrs.category =
      static_cast<std::uint32_t>(rng.uniformInt(std::uint64_t{kCategories}));
  attrs.keywords = {
      static_cast<std::uint32_t>(rng.uniformInt(std::uint64_t{kKeywords}))};
  return attrs;
}

struct System {
  Broker broker{kProxies};
  std::deque<SubscriptionId> live;  // oldest first
};

std::unique_ptr<System> buildSystem(std::uint64_t seed) {
  auto system = std::make_unique<System>();
  Rng rng(seed);
  for (std::uint64_t i = 0; i < kSubscriptions; ++i) {
    system->live.push_back(system->broker.subscribe(randomSubscription(rng)));
  }
  return system;
}

bool sameCounts(const std::vector<Notification>& got,
                const MatchResult& want) {
  if (got.size() != want.proxyCounts.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].proxy != want.proxyCounts[i].first ||
        got[i].matchCount != want.proxyCounts[i].second) {
      return false;
    }
  }
  return true;
}

}  // namespace

Report runMatchChurn(const Options& options, Tracer* tracer) {
  Report report;
  const std::uint64_t subSeed = options.seed * 1000003 + 1;

  std::vector<double> setupSeconds;
  std::unique_ptr<System> system;
  for (int i = 0; i < kSetups; ++i) {
    system.reset();
    const std::int64_t t0 = nowNs();
    system = buildSystem(subSeed);
    setupSeconds.push_back(nsToSeconds(nowNs() - t0));
  }
  Broker& broker = system->broker;

  // The oracle twin gets the identical subscription stream (untimed).
  ReferenceMatcher reference;
  {
    Rng rng(subSeed);
    for (std::uint64_t i = 0; i < kSubscriptions; ++i) {
      reference.addSubscription(randomSubscription(rng));
    }
  }

  Rng eventRng(options.seed * 1000003 + 2);
  Rng churnRng(options.seed * 1000003 + 3);
  Rng sizeRng(options.seed * 1000003 + 4);
  const PublishingParams paper;
  const LogNormalDistribution pageSize(paper.sizeMu, paper.sizeSigma);

  std::uint32_t publishName = 0, unsubscribeName = 0, subscribeName = 0;
  if (tracer != nullptr) {
    // Reserved up front for the same reason as publishUs below.
    tracer->reserve(static_cast<std::size_t>(options.seconds * 60000));
    publishName = tracer->intern("pubsub.publish");
    unsubscribeName = tracer->intern("pubsub.unsubscribe");
    subscribeName = tracer->intern("pubsub.subscribe");
  }

  // Reserved for far more publishes than a run makes: the untouched
  // capacity is not resident, whereas growing by doubling would copy the
  // buffer and briefly hold it twice inside peak_rss_mb.
  std::vector<Sample> publishUs;
  publishUs.reserve(static_cast<std::size_t>(options.seconds * 100000) +
                    kTrafficPublishes);
  std::uint64_t publishes = 0, churns = 0, proxiesNotified = 0;
  std::uint64_t checks = 0;
  double trafficBytes = 0.0;
  // Per slot kind (0 = untraced, 1 = traced): ops and wall time spent
  // outside oracle checks.
  std::uint64_t slotOps[2] = {0, 0};
  std::int64_t slotNs[2] = {0, 0};
  const auto windows = static_cast<int>(options.seconds * 1e9 / kWindowNs);
  std::vector<std::uint64_t> windowOps(static_cast<std::size_t>(windows));
  std::vector<std::int64_t> windowNs(static_cast<std::size_t>(windows));

  const double rssBefore = currentRssMb();
  const ProcMeter meter;
  const std::uint64_t matchesBefore = broker.notificationCount();
  const std::int64_t start = nowNs();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(options.seconds * 1e9);
  std::int64_t now = start;
  double peakRss = 0.0, rssGrowth = 0.0;
  while (now < deadline || publishes < kTrafficPublishes ||
         churns < kMemoryChurns) {
    const int traced =
        tracer != nullptr && ((now - start) / kSlotNs) % 2 == 1 ? 1 : 0;
    const std::int64_t pairStart = now;
    std::int64_t checkNs = 0;

    // Publish: match plus fan-out.
    const ContentAttributes attrs = randomEvent(eventRng);
    const double size = std::clamp(pageSize.sample(sizeRng),
                                   static_cast<double>(paper.minPageSize),
                                   static_cast<double>(paper.maxPageSize));
    const std::int64_t p0 = nowNs();
    const std::vector<Notification> notes = broker.publish(attrs);
    const std::int64_t p1 = nowNs();
    if (traced) tracer->record(publishName, 0, publishes, p0, p1);
    publishUs.push_back({p0, static_cast<double>(p1 - p0) * 1e-3});
    proxiesNotified += notes.size();
    if (publishes < kTrafficPublishes) {
      trafficBytes += size * static_cast<double>(notes.size());
    }
    if (publishes % kCheckEvery == 0) {
      const std::int64_t c0 = nowNs();
      ++checks;
      report.check(sameCounts(notes, reference.match(attrs)),
                   "publish " + std::to_string(publishes) +
                       ": Broker notifications differ from ReferenceMatcher");
      checkNs += nowNs() - c0;
    }
    ++publishes;

    // Churn: drop the oldest subscription, add a fresh one.
    Subscription fresh = randomSubscription(churnRng);
    const Subscription freshCopy = fresh;
    const SubscriptionId oldest = system->live.front();
    system->live.pop_front();
    const std::int64_t u0 = nowNs();
    const bool removed = broker.unsubscribe(oldest);
    const std::int64_t u1 = nowNs();
    const SubscriptionId id = broker.subscribe(std::move(fresh));
    const std::int64_t s1 = nowNs();
    if (traced) {
      tracer->record(unsubscribeName, 0, churns, u0, u1);
      tracer->record(subscribeName, 0, churns, u1, s1);
    }
    system->live.push_back(id);
    if (!removed) ++report.failed;
    ++churns;
    if (churns == kMemoryChurns) {
      peakRss = peakRssMb();
      rssGrowth = currentRssMb() - rssBefore -
                  (tracer != nullptr ? tracer->spanMb() : 0.0);
    }

    const std::int64_t c0 = nowNs();
    reference.removeSubscription(oldest);
    const SubscriptionId refId = reference.addSubscription(freshCopy);
    if (refId != id) {
      report.check(false, "churn " + std::to_string(churns) +
                              ": subscription ids diverged from the oracle");
    }
    now = nowNs();
    checkNs += now - c0;

    slotOps[traced] += 2;
    slotNs[traced] += now - pairStart - checkNs;
    const auto window =
        static_cast<std::size_t>((pairStart - start) / kWindowNs);
    if (window < windowOps.size()) {
      windowOps[window] += 2;
      windowNs[window] += now - pairStart - checkNs;
    }
  }
  const ProcUsage usage = meter.read();
  const std::uint64_t matches = broker.notificationCount() - matchesBefore;

  report.attempted = publishes + churns;
  report.check(checks > 0, "no publish was checked against the oracle");
  report.check(broker.engine().size() == kSubscriptions,
               "live subscription count drifted from 10^5");

  const auto rate = [&](int kind) {
    return slotNs[kind] == 0 ? 0.0
                             : static_cast<double>(slotOps[kind]) /
                                   nsToSeconds(slotNs[kind]);
  };
  const auto pubs = static_cast<double>(publishes);
  if (tracer == nullptr) {
    std::vector<double> windowRates;
    for (std::size_t w = 0; w < windowOps.size(); ++w) {
      if (windowNs[w] > 0) {
        windowRates.push_back(static_cast<double>(windowOps[w]) /
                              nsToSeconds(windowNs[w]));
      }
    }
    report.add("setup_s", median(setupSeconds), "s", setupSeconds.size());
    report.add("throughput_ops_s", median(windowRates), "ops/s", slotOps[0]);
    report.add("latency_p50_us",
               windowedPercentile(publishUs, start, kWindowNs, windows, 50.0),
               "us", publishUs.size());
    report.add("latency_p99_us",
               windowedPercentile(publishUs, start, kWindowNs, windows, 99.0),
               "us", publishUs.size());
    report.add("peak_rss_mb", peakRss, "MB", kMemoryChurns);
    // The matcher's hit ratio: the share of live subscriptions that one
    // publish matches. A correct matcher cannot move it.
    report.add("hit_ratio",
               static_cast<double>(matches) /
                   (pubs * static_cast<double>(kSubscriptions)),
               "fraction", publishes);
    // What an Always-Pushing engine would send publisher->proxies for
    // these notifications: one page copy per notified proxy.
    report.add("traffic_mb", trafficBytes / 1e6, "MB", kTrafficPublishes);
  } else {
    const SpanTotals sub = spanTotals(*tracer, "pubsub.subscribe");
    const SpanTotals unsub = spanTotals(*tracer, "pubsub.unsubscribe");
    report.add("pubsub.subscribe_ns", sub.meanNs(), "ns", sub.count);
    report.add("pubsub.unsubscribe_ns", unsub.meanNs(), "ns", unsub.count);
    report.add("trace.overhead_frac", 1.0 - rate(1) / rate(0), "fraction",
               slotOps[1]);
  }
  report.add("pubsub.matches_per_publish", static_cast<double>(matches) / pubs,
             "count", publishes);
  report.add("pubsub.proxies_per_publish",
             static_cast<double>(proxiesNotified) / pubs, "count", publishes);
  report.add("pubsub.rss_growth_mb", rssGrowth, "MB", kMemoryChurns);
  addProcUsage(report, usage);
  return report;
}

}  // namespace perfbench
