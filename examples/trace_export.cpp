// Workload tooling: generate a trace, persist it in the binary format,
// reload it, and export CSVs for external analysis (plotting, spreadsheet
// inspection of the publishing dynamics, etc.).
//
//   $ ./trace_export [output-dir]
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "pscd/pscd.h"

using namespace pscd;

int main(int argc, char** argv) {
  const std::filesystem::path dir = argc > 1 ? argv[1] : "trace_out";
  std::filesystem::create_directories(dir);

  WorkloadParams params = newsTraceParams();
  params.publishing.numPages = 2000;
  params.publishing.numUpdatedPages = 800;
  params.request.totalRequests = 60000;
  params.request.numProxies = 30;
  std::printf("Generating workload (seed %llu)...\n",
              static_cast<unsigned long long>(params.seed));
  const Workload w = buildWorkload(params);

  const auto tracePath = dir / "news.trace";
  saveWorkloadFile(w, tracePath.string());
  const Workload reloaded = loadWorkloadFile(tracePath.string());
  std::printf("Binary trace round-trip: %zu publishes, %zu requests -> %s\n",
              reloaded.publishes.size(), reloaded.requests.size(),
              tracePath.c_str());

  const auto writeCsv = [&](const char* name, auto&& exporter) {
    const auto path = dir / name;
    std::ofstream out(path);
    exporter(reloaded, out);
    std::printf("  wrote %s\n", path.c_str());
  };
  writeCsv("publishes.csv", [](const Workload& wl, std::ostream& os) {
    exportPublishesCsv(wl, os);
  });
  writeCsv("requests.csv", [](const Workload& wl, std::ostream& os) {
    exportRequestsCsv(wl, os);
  });
  writeCsv("subscriptions.csv", [](const Workload& wl, std::ostream& os) {
    exportSubscriptionsCsv(wl, os);
  });

  // A few summary statistics of the generated trace.
  RunningStats sizes, versions;
  for (const auto& p : reloaded.pages) {
    sizes.add(static_cast<double>(p.size));
    versions.add(p.numVersions);
  }
  std::printf("\nPage sizes: mean %.1f KB (min %.1f, max %.1f)\n",
              sizes.mean() / 1e3, sizes.min() / 1e3, sizes.max() / 1e3);
  std::printf("Versions per page: mean %.1f, max %.0f\n", versions.mean(),
              versions.max());
  HourlySeries hourly(7 * 24);
  for (const auto& r : reloaded.requests) hourly.add(r.time, 1.0);
  double peak = 0.0;
  std::size_t peakHour = 0;
  for (std::size_t h = 0; h < hourly.hours(); ++h) {
    if (hourly.numerator(h) > peak) {
      peak = hourly.numerator(h);
      peakHour = h;
    }
  }
  std::printf("Request peak: hour %zu (%0.f requests); diurnal swing is\n"
              "visible in requests.csv.\n",
              peakHour, peak);
  return 0;
}
