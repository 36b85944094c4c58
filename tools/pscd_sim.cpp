// pscd_sim: command-line front end to the simulator. Runs one strategy
// over a canonical or customized trace and reports hit ratio and
// traffic, then the trace build time, the simulation time and the peak
// RSS; optionally dumps the hourly series as CSV.
//
//   $ pscd_sim --trace NEWS --strategy SG2 --capacity 0.05
//   $ pscd_sim --trace ALT --strategy "GD*" --sq 0.5 --hourly-csv h.csv
#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <iostream>

#include "pscd/pscd.h"
#include "pscd/util/args.h"
#include "pscd/util/wallclock.h"
#include "pscd/version.h"

using namespace pscd;

namespace {

/// Peak resident set of the process so far, in MB (Linux reports KB).
double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("pscd_sim",
                 "content-distribution simulation for publish/subscribe "
                 "(Chen, LaPaugh & Singh, Middleware 2003), pscd v" +
                     std::string(kVersion));
  args.addOption("trace", "NEWS (Zipf 1.5) or ALT (Zipf 1.0)", "NEWS");
  args.addOption("strategy",
                 "GD*, SUB, SG1, SG2, SR, DM, DC-FP, DC-AP, DC-LAP, LRU, "
                 "GDS, LFU-DA",
                 "SG2");
  args.addOption("capacity", "cache capacity fraction of unique bytes",
                 "0.05");
  args.addOption("sq", "subscription quality in (0, 1]", "1.0");
  args.addOption("beta", "GD* balance factor; 'auto' = paper setting",
                 "auto");
  args.addOption("scheme", "push scheme: always | necessary", "always");
  args.addOption("seed", "workload seed", "42");
  args.addOption("topology-seed", "overlay topology seed", "7");
  args.addOption("requests", "total requests (0 = paper default)", "0");
  args.addOption("pages", "distinct pages (0 = paper default)", "0");
  args.addOption("proxies", "number of proxies (0 = paper default)", "0");
  args.addOption("hourly-csv", "write hour,hit_ratio,traffic_pages CSV", "");
  args.addOption("fault-seed", "failure-model seed (independent of --seed)",
                 "0");
  args.addOption("fault-proxy-rate", "proxy crashes per proxy per day", "0");
  args.addOption("fault-proxy-downtime", "mean proxy downtime in hours", "1");
  args.addOption("fault-link-rate", "link failures per link per day", "0");
  args.addOption("fault-link-downtime", "mean link downtime in hours", "0.5");
  args.addOption("fault-push-loss", "per-push in-flight loss probability",
                 "0");
  args.addOption("fault-fetch-fail", "per-fetch-attempt failure probability",
                 "0");
  args.addOption("fault-retries", "max fetch retries before degrading", "3");
  args.addOption("fault-backoff-ms", "base retry backoff in ms (doubles)",
                 "50");
  args.addFlag("fault-warm-restart",
               "restarted proxies keep their cache (default: cold, cache "
               "wiped)");
  args.addFlag("fault-no-failover",
               "fail requests at a crashed proxy instead of fetching "
               "straight from the publisher");
  args.addFlag("self-check",
               "validate engine/broker/cache invariants after each "
               "simulated hour (CheckFailure aborts the run)");
  args.addFlag("quiet", "print only the hit ratio");

  if (!args.parse(argc, argv)) {
    if (!args.error().empty()) {
      std::fprintf(stderr, "error: %s\n\n", args.error().c_str());
    }
    std::fputs(args.help().c_str(), args.error().empty() ? stdout : stderr);
    return args.error().empty() ? 0 : 2;
  }

  try {
    const std::string traceArg = args.option("trace");
    const TraceKind trace = traceArg == "NEWS"  ? TraceKind::kNews
                            : traceArg == "ALT" ? TraceKind::kAlternative
                                                : throw std::invalid_argument(
                                                      "--trace must be NEWS "
                                                      "or ALT");
    const StrategyKind kind = parseStrategyKind(args.option("strategy"));
    const double capacity = args.optionDouble("capacity");
    const double sq = args.optionDouble("sq");

    WorkloadParams params = traceParams(trace, sq);
    params.seed = args.optionInt<std::uint64_t>("seed");
    if (const auto n = args.optionInt<std::uint64_t>("requests"); n > 0) {
      params.request.totalRequests = n;
    }
    if (const auto n = args.optionInt<std::uint32_t>("pages"); n > 0) {
      params.publishing.numPages = n;
      params.publishing.numUpdatedPages =
          static_cast<std::uint32_t>(std::uint64_t{n} * 2 / 5);
    }
    if (const auto n = args.optionInt<std::uint32_t>("proxies"); n > 0) {
      params.request.numProxies = n;
    }

    const bool quiet = args.flag("quiet");
    if (!quiet) std::printf("generating %s workload...\n", traceArg.c_str());
    const double buildStart = monotonicSeconds();
    const Workload workload = buildWorkload(params);
    const double buildSeconds = monotonicSeconds() - buildStart;

    Rng topoRng(args.optionInt<std::uint64_t>("topology-seed"));
    NetworkParams np;
    np.numProxies = workload.numProxies();
    const Network network(np, topoRng);

    SimConfig config;
    config.strategy = kind;
    config.capacityFraction = capacity;
    config.beta = args.option("beta") == "auto"
                      ? paperBeta(kind, trace, capacity)
                      : args.optionDouble("beta");
    const std::string scheme = args.option("scheme");
    if (scheme == "always") {
      config.pushScheme = PushScheme::kAlwaysPushing;
    } else if (scheme == "necessary") {
      config.pushScheme = PushScheme::kPushingWhenNecessary;
    } else {
      throw std::invalid_argument("--scheme must be always or necessary");
    }
    config.collectHourly = !args.option("hourly-csv").empty();
    config.selfCheckHourly = args.flag("self-check");

    config.faults.seed = args.optionInt<std::uint64_t>("fault-seed");
    config.faults.proxyFailuresPerDay = args.optionDouble("fault-proxy-rate");
    config.faults.proxyMeanDowntimeHours =
        args.optionDouble("fault-proxy-downtime");
    config.faults.linkFailuresPerDay = args.optionDouble("fault-link-rate");
    config.faults.linkMeanDowntimeHours =
        args.optionDouble("fault-link-downtime");
    config.faults.pushLossProbability = args.optionDouble("fault-push-loss");
    config.faults.fetchFailureProbability =
        args.optionDouble("fault-fetch-fail");
    config.faults.warmRestart = args.flag("fault-warm-restart");
    config.faults.publisherFailover = !args.flag("fault-no-failover");
    config.faults.retry.maxRetries =
        args.optionInt<std::uint32_t>("fault-retries");
    config.faults.retry.backoffBaseMs = args.optionDouble("fault-backoff-ms");

    const double runStart = monotonicSeconds();
    Simulator sim(workload, network, config);
    const SimMetrics m = sim.run();
    const double runSeconds = monotonicSeconds() - runStart;

    if (config.selfCheckHourly && !quiet) {
      std::printf("self-check       : invariants OK after every hour\n");
    }
    if (quiet) {
      std::printf("%.6f\n", m.hitRatio());
    } else {
      std::printf(
          "strategy %s, trace %s, capacity %.1f%%, SQ %.2f, beta %.4g, "
          "scheme %s\n",
          std::string(strategyName(kind)).c_str(), traceArg.c_str(),
          100 * capacity, sq, config.beta, scheme.c_str());
      std::printf("hit ratio H      : %.2f%% (%llu / %llu, %llu stale)\n",
                  100 * m.hitRatio(),
                  static_cast<unsigned long long>(m.hits()),
                  static_cast<unsigned long long>(m.requests()),
                  static_cast<unsigned long long>(m.staleMisses()));
      std::printf("mean response    : %.1f ms\n", m.meanResponseTime());
      std::printf("push traffic     : %llu pages, %.1f MB\n",
                  static_cast<unsigned long long>(m.traffic().pushPages),
                  m.traffic().pushBytes / 1e6);
      std::printf("fetch traffic    : %llu pages, %.1f MB\n",
                  static_cast<unsigned long long>(m.traffic().fetchPages),
                  m.traffic().fetchBytes / 1e6);
      if (config.faults.enabled()) {
        std::printf("availability     : %.4f (%llu of %llu unserved)\n",
                    m.availability(),
                    static_cast<unsigned long long>(m.unavailableRequests()),
                    static_cast<unsigned long long>(m.requests()));
        std::printf("degraded serving : %llu stale serves, %llu failovers\n",
                    static_cast<unsigned long long>(m.staleServes()),
                    static_cast<unsigned long long>(m.failovers()));
        std::printf("fetch retries    : %llu (%.3f per request)\n",
                    static_cast<unsigned long long>(m.totalRetries()),
                    m.retriesPerRequest());
        std::printf("lost pushes      : %llu pages, %.1f MB\n",
                    static_cast<unsigned long long>(
                        m.traffic().lostPushPages),
                    m.traffic().lostPushBytes / 1e6);
      }
      std::printf("trace build      : %.2f s (%zu requests)\n", buildSeconds,
                  workload.requests.size());
      std::printf("simulation       : %.2f s\n", runSeconds);
      std::printf("peak RSS         : %.1f MB\n", peakRssMb());
    }

    if (config.collectHourly) {
      std::ofstream out(args.option("hourly-csv"));
      if (!out) throw std::runtime_error("cannot open hourly CSV for write");
      CsvWriter csv(out);
      csv.header({"hour", "hit_ratio", "traffic_pages"});
      for (std::size_t h = 0; h < m.hours(); ++h) {
        csv.field(static_cast<std::uint64_t>(h))
            .field(m.hourlyHitRatio(h))
            .field(m.hourlyTrafficPages(h));
        csv.endRow();
      }
      if (!quiet) {
        std::printf("hourly series    : %s (%zu rows)\n",
                    args.option("hourly-csv").c_str(), m.hours());
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
