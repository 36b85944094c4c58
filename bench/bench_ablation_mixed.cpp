// Extension (the paper's stated future work, section 7): not all
// requests are driven through the notification service. A fraction of
// readers never subscribed, so their requests contribute no subscription
// information; this sweep shows how the subscription-based schemes
// degrade toward GD* as that fraction grows.
#include "bench_common.h"

using namespace pscd;
using namespace pscd::bench;

int main(int argc, char** argv) {
  const BenchEnv env = parseBenchEnv(
      argc, argv, "bench_ablation_mixed",
      "Extension: mixed notification-driven / ad-hoc traffic");
  printHeader("Extension: mixed notification-driven / ad-hoc traffic",
              "section 7 future work");
  constexpr StrategyKind kKinds[] = {StrategyKind::kGDStar,
                                     StrategyKind::kSUB, StrategyKind::kSG1,
                                     StrategyKind::kSG2, StrategyKind::kDCLAP};
  constexpr double kDriven[] = {1.0, 0.75, 0.5, 0.25};
  Rng nrng(7);
  const Network network(NetworkParams{}, nrng);

  // One task per driven fraction: workload construction dominates, so
  // each task builds its own trace (from its own parameters, no shared
  // RNG) and runs all five strategies on it.
  std::vector<std::vector<double>> hit(std::size(kDriven),
                                       std::vector<double>(5, 0.0));
  std::vector<std::function<void()>> tasks;
  for (std::size_t d = 0; d < std::size(kDriven); ++d) {
    tasks.push_back([&, d] {
      WorkloadParams params = traceParams(TraceKind::kNews, 1.0, env.scale);
      params.request.notificationDrivenFraction = kDriven[d];
      const Workload w = buildWorkload(params);
      for (std::size_t k = 0; k < std::size(kKinds); ++k) {
        SimConfig c;
        c.strategy = kKinds[k];
        c.beta = paperBeta(kKinds[k], TraceKind::kNews, 0.05);
        c.capacityFraction = 0.05;
        hit[d][k] = Simulator(w, network, c).run().hitRatio();
      }
    });
  }
  runAll(env.jobs, std::move(tasks));

  AsciiTable table({"driven fraction", "GD*", "SUB", "SG1", "SG2",
                    "DC-LAP"});
  for (std::size_t d = 0; d < std::size(kDriven); ++d) {
    table.row().cell(formatFixed(kDriven[d], 2));
    for (std::size_t k = 0; k < std::size(kKinds); ++k) {
      table.cell(pct(hit[d][k]));
    }
  }
  std::printf("Hit ratio (%%), NEWS, capacity = 5%%, SQ = 1:\n%s\n",
              table.render().c_str());
  CsvSink csv;
  csv.add("ablation_mixed", table);
  csv.writeTo(env.csvPath);
  std::printf(
      "Reading: subscription-based pushing still helps when only part of\n"
      "the traffic is notification-driven, degrading gracefully toward\n"
      "the access-based baseline as the driven fraction shrinks.\n");
  return 0;
}
