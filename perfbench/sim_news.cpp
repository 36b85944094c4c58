// sim-news: the paper's own experiment at 10x its request and page
// counts: the NEWS trace with 1.95M requests, 60k pages (24k of them
// updated, ~400k publishes) and 100 proxies, run under SG2 at 5% cache
// capacity with Always-Pushing. Set-up is buildWorkload plus the overlay
// Network; the measure phase repeats Simulator::run.
//
// Why: the core decisions, the cache strategies and the aggregated
// broker do all the work; net and the predicate matcher are idle.
// Workload generation is about half the wall time, so set-up and
// trace-memory changes show here.
//
// Correctness: H and traffic must be identical across repeats, and in
// the traced run the benchmark's own replay of the trace through a
// DistributionService (the simulator's merge order, publishes winning
// ties) must reproduce them exactly.
#include <algorithm>
#include <limits>
#include <optional>
#include <string>

#include "common.h"
#include "pscd/core/service.h"
#include "pscd/sim/experiment.h"
#include "pscd/sim/simulator.h"
#include "pscd/topology/network.h"
#include "pscd/workload/workload.h"

namespace perfbench {
namespace {

using namespace pscd;

/// Set-ups per run (setup_s is their median; a set-up takes ~1.2 s).
constexpr int kSetups = 3;

constexpr std::uint64_t kRequests = 1950000;
constexpr std::uint32_t kPages = 60000;
constexpr std::uint32_t kUpdatedPages = 24000;
constexpr double kCapacityFraction = 0.05;

/// Trace events per latency window. latency_* is the median over the
/// windows of each window's percentile (its lowest over the replays): a
/// window holds the same events in every run, and a burst of host noise
/// moves the windows it falls in, not the result.
constexpr std::size_t kEventWindow = std::size_t{1} << 14;

WorkloadParams newsParams(std::uint64_t seed) {
  WorkloadParams p = traceParams(TraceKind::kNews, 1.0);
  p.request.totalRequests = kRequests;
  p.publishing.numPages = kPages;
  p.publishing.numUpdatedPages = kUpdatedPages;
  p.seed = seed;
  return p;
}

SimConfig simConfig() {
  SimConfig c;
  c.strategy = StrategyKind::kSG2;
  c.capacityFraction = kCapacityFraction;
  c.beta = paperBeta(StrategyKind::kSG2, TraceKind::kNews, kCapacityFraction);
  c.pushScheme = PushScheme::kAlwaysPushing;
  return c;
}

/// The paper's outcome of one run: H and publisher->proxy traffic.
struct Outcome {
  std::uint64_t hits = 0;
  std::uint64_t requests = 0;
  Bytes pushBytes = 0;
  Bytes fetchBytes = 0;

  double hitRatio() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(requests);
  }
  double trafficMb() const {
    return static_cast<double>(pushBytes + fetchBytes) / 1e6;
  }
  friend bool operator==(const Outcome&, const Outcome&) = default;
};

class ReplaySink final : public EventSink {
 public:
  void onPush(const PushDelivery& d) override { outcome.pushBytes += d.bytes; }
  void onRequest(const RequestDelivery& d) override {
    ++outcome.requests;
    if (d.hit) ++outcome.hits;
    outcome.fetchBytes += d.bytesTransferred;
  }

  Outcome outcome;
};

/// Service times of trace events (handlePublish/handleRequest), kept as
/// the percentiles of consecutive windows of kEventWindow events. Every
/// replay runs the same events through the same windows, and host noise
/// only ever slows them, so each window keeps its lowest percentile over
/// the replays.
struct EventLatency {
  std::vector<double> windowUs;           // the current window's times
  std::size_t window = 0;                 // its index in this replay
  std::vector<double> bestP50Us, bestP99Us;  // per window index

  void startReplay() {
    windowUs.clear();
    window = 0;
  }

  /// Adds one event's time; true when that closed a window.
  bool add(double us) {
    windowUs.push_back(us);
    if (windowUs.size() < kEventWindow) return false;
    const double p50 = percentile(windowUs, 50.0);
    const double p99 = percentile(windowUs, 99.0);
    if (window == bestP50Us.size()) {
      bestP50Us.push_back(p50);
      bestP99Us.push_back(p99);
    } else {
      bestP50Us[window] = std::min(bestP50Us[window], p50);
      bestP99Us[window] = std::min(bestP99Us[window], p99);
    }
    ++window;
    windowUs.clear();
    return true;
  }
};

struct ReplayResult {
  Outcome outcome;
  std::int64_t wallNs = 0;  // whole replay minus probes and percentiles
  std::uint64_t notified = 0;
  std::uint64_t stored = 0;
  std::uint64_t matches = 0;
  std::uint64_t publishes = 0;
};

/// Replays the trace through a benchmark-owned DistributionService the
/// way Simulator::run drives it (same service config, same merge order
/// with publishes winning ties), timing every core call into `latency`
/// and, with a tracer, recording a span for it. After each publish it
/// probes every notified proxy's cache, outside the timings and the wall
/// time, to count the proxies that stored the page.
ReplayResult replay(const Workload& workload, const Network& network,
                    const Simulator& sim, const SimConfig& config,
                    Tracer* tracer, EventLatency& latency) {
  ServiceConfig sc;
  sc.engine.strategy = config.strategy;
  sc.engine.beta = config.beta;
  sc.engine.pushScheme = config.pushScheme;
  sc.engine.dcInitialPcFraction = config.dcInitialPcFraction;
  sc.engine.dcMinPcFraction = config.dcMinPcFraction;
  sc.engine.dcMaxPcFraction = config.dcMaxPcFraction;
  for (ProxyId p = 0; p < workload.numProxies(); ++p) {
    sc.engine.proxyCapacities.push_back(sim.proxyCapacity(p));
  }
  sc.latency.localLatencyMs = config.localLatencyMs;
  sc.latency.remoteLatencyMsPerUnit = config.remoteLatencyMsPerUnit;

  ManualClock clock;
  ReplaySink sink;
  DistributionService service(network, clock, sink, std::move(sc));
  for (PageId page = 0; page < workload.numPages(); ++page) {
    for (const Notification& n : workload.subscriptions(page)) {
      service.broker().subscribeAggregated(n.proxy, page, n.matchCount);
    }
  }

  std::uint32_t publishName = 0, requestName = 0;
  const std::size_t events =
      workload.publishes.size() + workload.requests.size();
  if (tracer != nullptr) {
    publishName = tracer->intern("core.publish");
    requestName = tracer->intern("core.request");
    tracer->reserve(tracer->spans().size() + events);
  }
  ReplayResult result;
  latency.startReplay();
  latency.windowUs.reserve(kEventWindow);
  std::int64_t untimedNs = 0;
  const std::uint64_t matchesBefore = service.broker().notificationCount();
  const std::int64_t start = nowNs();
  std::size_t pi = 0, ri = 0;
  constexpr SimTime kNever = std::numeric_limits<SimTime>::infinity();
  while (pi < workload.publishes.size() || ri < workload.requests.size()) {
    const SimTime nextPublish =
        pi < workload.publishes.size() ? workload.publishes[pi].time : kNever;
    const SimTime nextRequest =
        ri < workload.requests.size() ? workload.requests[ri].time : kNever;
    if (nextPublish <= nextRequest) {
      const PublishEvent& ev = workload.publishes[pi];
      clock.advance(ev.time);
      const std::int64_t t0 = nowNs();
      service.handlePublish(ev);
      const std::int64_t t1 = nowNs();
      if (tracer != nullptr) tracer->record(publishName, 0, pi + ri, t0, t1);
      latency.add(static_cast<double>(t1 - t0) * 1e-3);
      for (const Notification& n : workload.subscriptions(ev.page)) {
        ++result.notified;
        if (service.engine().strategy(n.proxy).cachedVersion(ev.page) ==
            ev.version) {
          ++result.stored;
        }
      }
      untimedNs += nowNs() - t1;
      ++pi;
    } else {
      const RequestEvent& ev = workload.requests[ri];
      clock.advance(ev.time);
      const std::int64_t t0 = nowNs();
      service.handleRequest(ev.proxy, ev.page);
      const std::int64_t t1 = nowNs();
      if (tracer != nullptr) tracer->record(requestName, 0, pi + ri, t0, t1);
      if (latency.add(static_cast<double>(t1 - t0) * 1e-3)) {
        untimedNs += nowNs() - t1;
      }
      ++ri;
    }
  }
  result.wallNs = nowNs() - start - untimedNs;
  result.outcome = sink.outcome;
  result.matches = service.broker().notificationCount() - matchesBefore;
  result.publishes = workload.publishes.size();
  return result;
}

}  // namespace

Report runSimNews(const Options& options, Tracer* tracer) {
  Report report;
  const WorkloadParams params = newsParams(options.seed);
  const SimConfig config = simConfig();

  std::vector<double> setupSeconds, buildSeconds;
  std::optional<Workload> workload;
  std::optional<Network> network;
  for (int i = 0; i < kSetups; ++i) {
    workload.reset();
    network.reset();
    const std::int64_t t0 = nowNs();
    workload.emplace(buildWorkload(params));
    const std::int64_t t1 = nowNs();
    NetworkParams np;
    np.numProxies = workload->numProxies();
    Rng topologyRng(options.seed * 1000003 + 7);
    network.emplace(np, topologyRng);
    const std::int64_t t2 = nowNs();
    buildSeconds.push_back(nsToSeconds(t1 - t0));
    setupSeconds.push_back(nsToSeconds(t2 - t0));
  }
  const std::uint64_t events =
      workload->publishes.size() + workload->requests.size();

  Simulator sim(*workload, *network, config);
  const double rssBefore = currentRssMb();
  const ProcMeter meter;
  // The untraced run alternates Simulator::run with a replay of the
  // trace, event by event, for the per-event latency and the check
  // against Simulator::run; both then sample the host over the whole
  // run. The traced run spends half its time on Simulator::run repeats
  // (the overhead baseline) and then replays the trace once with spans.
  const double repeatSeconds =
      tracer == nullptr ? options.seconds : options.seconds / 2;
  const std::int64_t deadline =
      nowNs() + static_cast<std::int64_t>(repeatSeconds * 1e9);
  // throughput_ops_s divides by the CPU time of the fastest
  // Simulator::run, which is single-threaded, not by its wall time: the
  // hypervisor steals from 1% to a quarter of a vCPU's time, varying from
  // minute to minute, and the kernel leaves stolen time out of a thread's
  // CPU time. Co-tenants also slow the CPU time itself (shared caches),
  // but only ever slow it, so the fastest repeat is the steadiest.
  std::vector<double> runSeconds, runCpuSeconds;
  EventLatency latency;
  std::optional<Outcome> first;
  std::uint64_t staleMisses = 0, pushPages = 0;
  double peakRss = 0.0;
  const auto checkReplay = [&](const ReplayResult& r) {
    report.attempted += events;
    report.check(r.outcome == *first,
                 "replay disagrees with Simulator::run: H " +
                     std::to_string(r.outcome.hitRatio()) + " vs " +
                     std::to_string(first->hitRatio()) + ", traffic " +
                     std::to_string(r.outcome.trafficMb()) + " MB vs " +
                     std::to_string(first->trafficMb()) + " MB");
  };
  std::vector<std::uint64_t> refTable(std::size_t{1} << 23);
  for (std::size_t i = 0; i < refTable.size(); ++i) refTable[i] = i * 0x9E3779B97F4A7C15ull;
  const auto refMem = [&] {
    const std::int64_t c0 = threadCpuNs();
    std::uint64_t x = 1, n = 0;
    const std::uint64_t mask = refTable.size() - 1;
    while (threadCpuNs() - c0 < 100'000'000) {
      for (int k = 0; k < 4096; ++k) {
        const std::uint64_t i = (x ^ refTable[x & mask]) & mask;
        refTable[i] += x;
        x = x * 6364136223846793005ull + i;
      }
      n += 4096;
    }
    return static_cast<double>(n) / nsToSeconds(threadCpuNs() - c0);
  };
  const auto refAlu = [&] {
    const std::int64_t c0 = threadCpuNs();
    std::uint64_t x = 1, n = 0;
    while (threadCpuNs() - c0 < 100'000'000) {
      for (int k = 0; k < 4096; ++k) x = x * 6364136223846793005ull + (x >> 17);
      n += 4096;
    }
    refTable[0] += x;
    return static_cast<double>(n) / nsToSeconds(threadCpuNs() - c0);
  };
  do {
    const double rm = refMem(), ra = refAlu();
    const std::int64_t t0 = nowNs();
    const std::int64_t cpu0 = threadCpuNs();
    const SimMetrics m = sim.run();
    runCpuSeconds.push_back(nsToSeconds(threadCpuNs() - cpu0));
    runSeconds.push_back(nsToSeconds(nowNs() - t0));
    std::fprintf(stderr, "REF %.6g %.6g %.6g\n", events / runCpuSeconds.back(), rm, ra);
    report.attempted += events;
    const Outcome outcome{m.hits(), m.requests(), m.traffic().pushBytes,
                          m.traffic().fetchBytes};
    if (!first) {
      first = outcome;
      staleMisses = m.staleMisses();
      pushPages = m.traffic().pushPages;
      peakRss = peakRssMb();  // before the replay's own buffers
    }
    report.check(outcome == *first,
                 "Simulator::run repeat " + std::to_string(runSeconds.size()) +
                     " changed H or traffic");
    report.check(m.requests() == workload->requests.size(),
                 "Simulator::run served a different number of requests");
    if (tracer == nullptr) {
      checkReplay(replay(*workload, *network, sim, config, nullptr, latency));
    }
  } while (nowNs() < deadline || runSeconds.size() < 2);
  const double rssGrowth = currentRssMb() - rssBefore;
  const ProcUsage usage = meter.read();

  const double runMedian = median(runSeconds);
  const auto publishes = static_cast<double>(workload->publishes.size());
  if (tracer == nullptr) {
    report.add("setup_s", median(setupSeconds), "s", setupSeconds.size());
    report.add("throughput_ops_s",
               static_cast<double>(events) /
                   *std::min_element(runCpuSeconds.begin(),
                                     runCpuSeconds.end()),
               "ops/s", runCpuSeconds.size());
    const std::uint64_t timedEvents = events * runSeconds.size();  // replays
    report.add("latency_p50_us", median(latency.bestP50Us), "us",
               timedEvents);
    report.add("latency_p99_us", median(latency.bestP99Us), "us",
               timedEvents);
    report.add("peak_rss_mb", peakRss, "MB");
    report.add("hit_ratio", first->hitRatio(), "fraction", first->requests);
    report.add("traffic_mb", first->trafficMb(), "MB", events);
  } else {
    const ReplayResult r =
        replay(*workload, *network, sim, config, tracer, latency);
    checkReplay(r);
    const SpanTotals req = spanTotals(*tracer, "core.request");
    const SpanTotals pub = spanTotals(*tracer, "core.publish");
    report.add("core.request_ns", req.meanNs(), "ns", req.count);
    report.add("core.publish_ns", pub.meanNs(), "ns", pub.count);
    report.add("cache.push_store_ratio",
               static_cast<double>(r.stored) /
                   static_cast<double>(std::max<std::uint64_t>(r.notified, 1)),
               "fraction", r.notified);
    report.add("pubsub.matches_per_publish",
               static_cast<double>(r.matches) / publishes, "count",
               r.publishes);
    report.add("pubsub.proxies_per_publish",
               static_cast<double>(r.notified) / publishes, "count",
               r.publishes);
    const double replaySeconds = nsToSeconds(r.wallNs);
    report.add("sim.driver_frac",
               1.0 - nsToSeconds(req.sumNs + pub.sumNs) / replaySeconds,
               "fraction", events);
    report.add("trace.overhead_frac", 1.0 - runMedian / replaySeconds,
               "fraction", events);
  }
  report.add("workload.build_s", median(buildSeconds), "s",
             buildSeconds.size());
  report.add("workload.events", static_cast<double>(events), "count");
  report.add("sim.run_s", runMedian, "s", runSeconds.size());
  report.add("core.push_pages_per_publish",
             static_cast<double>(pushPages) / publishes, "count",
             workload->publishes.size());
  report.add("cache.stale_frac",
             static_cast<double>(staleMisses) /
                 static_cast<double>(first->requests),
             "fraction", first->requests);
  report.add("pubsub.rss_growth_mb", rssGrowth, "MB");
  addProcUsage(report, usage);
  return report;
}

}  // namespace perfbench
