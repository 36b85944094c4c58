// Pinned simulator results: nine SimMetrics fields, printed at %.17g,
// of SG2, GD* and DC-LAP on the NEWS trace at scale 0.1 (workload seed
// 42, topology seed 7), in three modes: fault-free; under the fault
// sweep's "medium" failure model (all four fault processes) with
// publisher failover and cold restarts; and under the same model without
// failover and with warm restarts. The figure CSVs round to 0.1 %, so a
// change in the last bit of a result only shows here.
//
// A line may only move with a change that means to alter simulation
// results; the change then updates the line and says why.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "pscd/sim/experiment.h"
#include "pscd/sim/simulator.h"
#include "pscd/topology/network.h"
#include "pscd/util/rng.h"
#include "pscd/workload/workload.h"

namespace pscd {
namespace {

constexpr StrategyKind kKinds[] = {StrategyKind::kSG2, StrategyKind::kGDStar,
                                   StrategyKind::kDCLAP};

enum class Mode { kFaultFree, kColdWithFailover, kWarmWithoutFailover };

const Workload& newsTrace() {
  static const Workload workload = [] {
    WorkloadParams params = traceParams(TraceKind::kNews, 1.0, 0.1);
    params.seed = 42;
    return buildWorkload(params);
  }();
  return workload;
}

const Network& overlay() {
  static const Network network = [] {
    Rng rng(7);
    return Network(NetworkParams{}, rng);
  }();
  return network;
}

/// bench_fault_sweep's "medium" level, under a fixed fault seed.
FaultConfig mediumFaults(Mode mode) {
  FaultConfig faults;
  if (mode == Mode::kFaultFree) return faults;
  faults.seed = 1303;
  faults.proxyFailuresPerDay = 1.0;
  faults.proxyMeanDowntimeHours = 1.0;
  faults.linkFailuresPerDay = 2.0;
  faults.linkMeanDowntimeHours = 0.5;
  faults.pushLossProbability = 0.02;
  faults.fetchFailureProbability = 0.05;
  faults.warmRestart = mode == Mode::kWarmWithoutFailover;
  faults.publisherFailover = mode == Mode::kColdWithFailover;
  return faults;
}

std::string digestLine(StrategyKind kind, Mode mode) {
  SimConfig config;
  config.strategy = kind;
  config.beta = paperBeta(kind, TraceKind::kNews, 0.05);
  config.capacityFraction = 0.05;
  config.faults = mediumFaults(mode);
  const SimMetrics m = Simulator(newsTrace(), overlay(), config).run();
  const auto u = [](std::uint64_t v) {
    return static_cast<unsigned long long>(v);
  };
  char line[512];
  std::snprintf(line, sizeof line,
                "%s H=%.17g rt=%.17g avail=%.17g stale=%llu failovers=%llu "
                "retries=%llu bytes=%llu lost_bytes=%llu unavailable=%llu",
                std::string(strategyName(kind)).c_str(), m.hitRatio(),
                m.meanResponseTime(), m.availability(), u(m.staleServes()),
                u(m.failovers()), u(m.totalRetries()),
                u(m.traffic().totalBytes()), u(m.traffic().lostPushBytes),
                u(m.unavailableRequests()));
  return line;
}

void expectLines(Mode mode, const std::string (&want)[std::size(kKinds)]) {
  for (std::size_t k = 0; k < std::size(kKinds); ++k) {
    const std::string got = digestLine(kKinds[k], mode);
    EXPECT_EQ(got, want[k]) << "got: " << got;
  }
}

TEST(SimGoldenTest, FaultFree) {
  expectLines(Mode::kFaultFree, {
      "SG2 H=0.84953846153846158 rt=21.003376061756278"
      " avail=1 stale=0 failovers=0"
      " retries=0 bytes=1038955486 lost_bytes=0 unavailable=0",
      "GD* H=0.38871794871794874 rt=66.31222340047033"
      " avail=1 stale=0 failovers=0"
      " retries=0 bytes=157819918 lost_bytes=0 unavailable=0",
      "DC-LAP H=0.6226666666666667 rt=43.969485048275835"
      " avail=1 stale=0 failovers=0"
      " retries=0 bytes=1082825179 lost_bytes=0 unavailable=0",
  });
}

TEST(SimGoldenTest, MediumFaultsColdRestartsWithFailover) {
  expectLines(Mode::kColdWithFailover, {
      "SG2 H=0.72010256410256412 rt=35.697995607426463"
      " avail=1 stale=0 failovers=933"
      " retries=298 bytes=1001420528 lost_bytes=59705877 unavailable=0",
      "GD* H=0.36882051282051281 rt=71.285910037013934"
      " avail=1 stale=0 failovers=933"
      " retries=646 bytes=160997578 lost_bytes=0 unavailable=0",
      "DC-LAP H=0.56451282051282048 rt=51.797543647423119"
      " avail=1 stale=0 failovers=933"
      " retries=442 bytes=1032662214 lost_bytes=59291226 unavailable=0",
  });
}

TEST(SimGoldenTest, MediumFaultsWarmRestartsWithoutFailover) {
  expectLines(Mode::kWarmWithoutFailover, {
      "SG2 H=0.78584615384615386 rt=24.098511552618344"
      " avail=0.95215384615384613 stale=0 failovers=0"
      " retries=165 bytes=978779111 lost_bytes=59506694 unavailable=933",
      "GD* H=0.36984615384615382 rt=68.963642126486477"
      " avail=0.95215384615384613 stale=0 failovers=0"
      " retries=604 bytes=150006406 lost_bytes=0 unavailable=933",
      "DC-LAP H=0.58682051282051284 rt=45.878844127135558"
      " avail=0.95215384615384613 stale=0 failovers=0"
      " retries=336 bytes=1018490503 lost_bytes=58380932 unavailable=933",
  });
}

}  // namespace
}  // namespace pscd
