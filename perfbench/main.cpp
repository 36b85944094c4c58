// pscd_perfbench: runs one benchmark workload in this process and prints
// its metrics. run.py builds this binary and calls it once per workload,
// so every workload gets a fresh process (peak RSS is a process-wide
// high-water mark).
//
//   pscd_perfbench --workload serve-mixed|sim-news|match-churn
//                  --seed N --seconds S --trace 0|1 [--spans PATH]
//
// Output: one "metric" line per measurement (name, value, unit, sample
// count), one "check FAILED" line per failed correctness check, a
// "stamp" line describing the build and host, and last a JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit status is 0 when
// every check passed, 1 when one failed, 2 on a usage or build error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common.h"

namespace perfbench {
namespace {

void printResult(const Report& report) {
  for (const Metric& m : report.metrics) {
    std::printf("metric %-28s %.6g %s (n=%llu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  for (const std::string& f : report.failures) {
    std::printf("check FAILED: %s\n", f.c_str());
  }
  const double errorRate =
      report.attempted == 0 ? 0.0
                            : static_cast<double>(report.failed) /
                                  static_cast<double>(report.attempted);
  std::printf("metric %-28s %.6g fraction (n=%llu)\n", "error_rate", errorRate,
              static_cast<unsigned long long>(report.attempted));
  std::printf("stamp nproc=%u compiler=\"%s\" build_type=%s ndebug=1\n",
              std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE);

  std::string json = "{\"correct\": ";
  json += report.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int usage(const char* message) {
  std::fprintf(stderr,
               "pscd_perfbench: %s\nusage: pscd_perfbench --workload "
               "serve-mixed|sim-news|match-churn --seed N --seconds S "
               "--trace 0|1 [--spans PATH]\n",
               message);
  return 2;
}

int run(int argc, char** argv) {
#ifndef NDEBUG
  // Without NDEBUG, Simulator::run validates every invariant once per
  // simulated hour and PSCD_DCHECKs stay on: the run would time the
  // checkers, not the system.
  std::fprintf(stderr,
               "pscd_perfbench: refusing to measure a build without NDEBUG "
               "(build type %s)\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--spans") {
      options.spansPath = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return usage("every flag takes one value");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  Tracer tracer;
  Tracer* spans = options.trace ? &tracer : nullptr;
  Report report;
  if (options.workload == "serve-mixed") {
    report = runServeMixed(options, spans);
  } else if (options.workload == "sim-news") {
    report = runSimNews(options, spans);
  } else if (options.workload == "match-churn") {
    report = runMatchChurn(options, spans);
  } else {
    return usage(("unknown workload '" + options.workload + "'").c_str());
  }
  if (spans != nullptr && !options.spansPath.empty()) {
    report.check(tracer.write(options.spansPath),
                 "writing spans to " + options.spansPath);
  }
  printResult(report);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pscd_perfbench: %s\n", e.what());
    return 2;
  }
}
