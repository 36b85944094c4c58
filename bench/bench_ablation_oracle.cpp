// Ablation: clairvoyant upper bound. A Belady-style oracle that knows
// every future request bounds the achievable hit ratio at each capacity;
// the gap between SG2/SR and the oracle is the room any smarter online
// strategy could still claim. The oracle runs through the same Simulator
// as the online strategies, by a strategy factory.
#include "bench_common.h"

using namespace pscd;
using namespace pscd::bench;

namespace {

double runOracle(const Workload& w, const Network& net,
                 double capacityFraction) {
  const auto schedules = buildRequestSchedules(w);
  SimConfig sc;
  sc.capacityFraction = capacityFraction;
  sc.strategyFactory = [&schedules](ProxyId p, const StrategyParams& params) {
    return std::make_unique<OracleStrategy>(params.capacity, schedules[p]);
  };
  return Simulator(w, net, sc).run().hitRatio();
}

}  // namespace

int main(int argc, char** argv) {
  const BenchEnv env =
      parseBenchEnv(argc, argv, "bench_ablation_oracle",
                    "Ablation: clairvoyant (Belady-style) upper bound");
  printHeader("Ablation: clairvoyant (Belady-style) upper bound",
              "an upper bound the paper does not report");
  ExperimentContext ctx(42, 7, env.scale);
  constexpr StrategyKind kKinds[] = {StrategyKind::kGDStar,
                                     StrategyKind::kSG2, StrategyKind::kSR};

  // The online strategies go through the shared cell runner; the oracle
  // runs fan out as driver tasks over the same pool configuration.
  std::vector<ExperimentCell> cells;
  for (const TraceKind trace : kTraces) {
    for (const double cap : kCapacityFractions) {
      for (const StrategyKind kind : kKinds) {
        cells.push_back({trace, 1.0, kind, cap});
      }
    }
  }
  const std::vector<SimMetrics> metrics = runCells(ctx, cells, env.jobs);

  std::vector<std::vector<double>> oracle(
      std::size(kTraces),
      std::vector<double>(std::size(kCapacityFractions), 0.0));
  std::vector<std::function<void()>> tasks;
  for (std::size_t t = 0; t < std::size(kTraces); ++t) {
    for (std::size_t c = 0; c < std::size(kCapacityFractions); ++c) {
      tasks.push_back([&, t, c] {
        oracle[t][c] = runOracle(ctx.workload(kTraces[t], 1.0),
                                 ctx.network(), kCapacityFractions[c]);
      });
    }
  }
  runAll(env.jobs, std::move(tasks));

  CsvSink csv;
  std::size_t i = 0;  // the tables walk the cells in order
  for (std::size_t t = 0; t < std::size(kTraces); ++t) {
    AsciiTable table({"capacity", "GD*", "SG2", "SR", "ORACLE"});
    for (std::size_t c = 0; c < std::size(kCapacityFractions); ++c) {
      table.row().cell(formatFixed(100 * kCapacityFractions[c], 0) + "%");
      for (std::size_t k = 0; k < std::size(kKinds); ++k) {
        table.cell(pct(metrics[i++].hitRatio()));
      }
      table.cell(pct(oracle[t][c]));
    }
    std::printf("Hit ratio (%%), trace %s, SQ = 1:\n%s\n",
                std::string(traceName(kTraces[t])).c_str(),
                table.render().c_str());
    csv.add(std::string("ablation_oracle_") +
                std::string(traceName(kTraces[t])),
            table);
  }
  csv.writeTo(env.csvPath);
  std::printf(
      "Reading: with perfect subscriptions SG2/SR close most of the gap\n"
      "to the clairvoyant bound; the residue is version churn plus pages\n"
      "whose single request cannot amortize their storage.\n");
  return 0;
}
