// News-site scenario: generate the paper's NEWS workload (a busy
// MSNBC-like publisher, 100 proxies, 7 simulated days), run a chosen
// strategy and print a daily report plus per-proxy spread.
//
//   $ ./news_site [strategy] [capacity%] [SQ]
//   $ ./news_site SG2 5 1.0
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "pscd/pscd.h"

using namespace pscd;

int main(int argc, char** argv) {
  const std::string strategyArg = argc > 1 ? argv[1] : "SG2";
  const double capacityPct = argc > 2 ? std::strtod(argv[2], nullptr) : 5.0;
  const double sq = argc > 3 ? std::strtod(argv[3], nullptr) : 1.0;
  StrategyKind kind;
  try {
    kind = parseStrategyKind(strategyArg);
  } catch (const std::exception&) {
    std::fprintf(stderr,
                 "unknown strategy '%s' (try GD*, SUB, SG1, SG2, SR, DM, "
                 "DC-FP, DC-AP, DC-LAP, LRU)\n",
                 strategyArg.c_str());
    return 1;
  }

  std::printf("Building NEWS workload (SQ = %.2f)...\n", sq);
  WorkloadParams params = newsTraceParams();
  params.subscription.quality = sq;
  const Workload workload = buildWorkload(params);
  std::printf("  %u pages, %zu publish events, %zu requests, %llu "
              "subscriptions\n",
              workload.numPages(), workload.publishes.size(),
              workload.requests.size(),
              static_cast<unsigned long long>(workload.totalSubscriptions()));

  Rng rng(7);
  const Network network(NetworkParams{}, rng);

  SimConfig config;
  config.strategy = kind;
  config.beta = paperBeta(kind, TraceKind::kNews, capacityPct / 100.0);
  config.capacityFraction = capacityPct / 100.0;
  config.collectHourly = true;
  Simulator sim(workload, network, config);
  std::printf("Running %s at %.0f%% capacity...\n\n",
              std::string(strategyName(kind)).c_str(), capacityPct);
  const SimMetrics m = sim.run();

  std::printf("Global hit ratio H: %.2f%%  (%llu hits / %llu requests, "
              "%llu stale misses)\n",
              100.0 * m.hitRatio(),
              static_cast<unsigned long long>(m.hits()),
              static_cast<unsigned long long>(m.requests()),
              static_cast<unsigned long long>(m.staleMisses()));
  std::printf("Traffic: %llu pushed pages (%.1f MB), %llu fetched pages "
              "(%.1f MB)\n\n",
              static_cast<unsigned long long>(m.traffic().pushPages),
              m.traffic().pushBytes / 1e6,
              static_cast<unsigned long long>(m.traffic().fetchPages),
              m.traffic().fetchBytes / 1e6);

  // A day's hit ratio weights each hour's by its requests, binned as
  // SimMetrics bins them.
  std::vector<double> hourlyRequests(m.hours(), 0.0);
  for (const RequestEvent& r : workload.requests) {
    hourlyRequests[std::min(static_cast<std::size_t>(r.time / kHour),
                            m.hours() - 1)] += 1.0;
  }
  AsciiTable daily({"day", "hit ratio", "traffic (pages)"});
  for (int day = 0; day < 7; ++day) {
    double hits = 0, reqs = 0, pages = 0;
    for (int h = day * 24; h < (day + 1) * 24; ++h) {
      const auto hour = static_cast<std::size_t>(h);
      hits += m.hourlyHitRatio(hour) * hourlyRequests[hour];
      reqs += hourlyRequests[hour];
      pages += m.hourlyTrafficPages(hour);
    }
    daily.row()
        .cell("day " + std::to_string(day + 1))
        .cell(formatFixed(100.0 * hits / reqs, 1) + "%")
        .cell(formatFixed(pages, 0));
  }
  std::printf("%s", daily.render().c_str());

  RunningStats perProxy;
  for (ProxyId p = 0; p < workload.numProxies(); ++p) {
    perProxy.add(m.proxyHitRatio(p));
  }
  std::printf("\nPer-proxy hit ratio: mean %.1f%%, min %.1f%%, max %.1f%%, "
              "stddev %.1f%%\n",
              100 * perProxy.mean(), 100 * perProxy.min(),
              100 * perProxy.max(), 100 * perProxy.stddev());
  return 0;
}
