// pscd_trace: generate, inspect and convert workload traces.
//
//   $ pscd_trace --generate news.trace --trace NEWS --seed 42
//   $ pscd_trace --inspect news.trace
//   $ pscd_trace --inspect news.trace --export-dir csv_out
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>

#include "pscd/pscd.h"
#include "pscd/util/args.h"

using namespace pscd;

namespace {

void inspect(const Workload& w) {
  std::printf("trace parameters:\n");
  std::printf("  zipf alpha          : %.2f\n", w.params.request.zipfAlpha);
  std::printf("  subscription quality: %.2f\n",
              w.params.subscription.quality);
  std::printf("  churn per day       : %.2f\n",
              w.params.subscription.churnPerDay);
  std::printf("  seed                : %llu\n",
              static_cast<unsigned long long>(w.params.seed));
  std::printf("contents:\n");
  std::printf("  pages               : %u\n", w.numPages());
  std::printf("  publish events      : %zu\n", w.publishes.size());
  std::printf("  requests            : %zu\n", w.requests.size());
  std::printf("  proxies             : %u\n", w.numProxies());
  std::printf("  subscriptions       : %llu (%zu distinct pairs)\n",
              static_cast<unsigned long long>(w.totalSubscriptions()),
              w.subEntries.size());
  std::printf("  churn events        : %zu\n", w.churn.size());

  RunningStats sizes, versions, uniq;
  for (const auto& p : w.pages) {
    sizes.add(static_cast<double>(p.size));
    versions.add(p.numVersions);
  }
  for (const auto& b : w.uniqueBytesRequested) {
    uniq.add(static_cast<double>(b));
  }
  std::printf("statistics:\n");
  std::printf("  page size           : mean %.1f KB, max %.1f KB\n",
              sizes.mean() / 1e3, sizes.max() / 1e3);
  std::printf("  versions per page   : mean %.1f, max %.0f\n",
              versions.mean(), versions.max());
  std::printf("  unique bytes/proxy  : mean %.2f MB\n", uniq.mean() / 1e6);

  // Top pages by request volume.
  std::vector<std::pair<std::uint32_t, PageId>> top;
  for (PageId p = 0; p < w.numPages(); ++p) {
    top.emplace_back(w.pages[p].requestCount, p);
  }
  std::sort(top.rbegin(), top.rend());
  std::printf("top pages by requests:\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(5, top.size()); ++i) {
    const auto [count, page] = top[i];
    std::printf("  page %-5u rank %-4u class %u: %u requests, %u versions\n",
                page, w.pages[page].popularityRank,
                w.pages[page].popularityClass, count,
                w.pages[page].numVersions);
  }
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("pscd_trace", "generate, inspect and convert pscd traces");
  args.addOption("generate", "write a new trace to this path", "");
  args.addOption("inspect", "load and summarize the trace at this path", "");
  args.addOption("export-dir", "also export CSVs into this directory", "");
  args.addOption("trace", "NEWS or ALT (for --generate)", "NEWS");
  args.addOption("sq", "subscription quality (for --generate)", "1.0");
  args.addOption("churn", "subscription churn per day (for --generate)",
                 "0.0");
  args.addOption("seed", "workload seed (for --generate)", "42");
  if (!args.parse(argc, argv)) {
    if (!args.error().empty()) {
      std::fprintf(stderr, "error: %s\n\n", args.error().c_str());
    }
    std::fputs(args.help().c_str(), args.error().empty() ? stdout : stderr);
    return args.error().empty() ? 0 : 2;
  }

  try {
    if (!args.option("generate").empty()) {
      WorkloadParams params =
          args.option("trace") == "ALT" ? alternativeTraceParams()
                                        : newsTraceParams();
      params.subscription.quality = args.optionDouble("sq");
      params.subscription.churnPerDay = args.optionDouble("churn");
      params.seed = args.optionInt<std::uint64_t>("seed");
      const Workload w = buildWorkload(params);
      saveWorkloadFile(w, args.option("generate"));
      std::printf("wrote %s (%zu publishes, %zu requests)\n",
                  args.option("generate").c_str(), w.publishes.size(),
                  w.requests.size());
      return 0;
    }
    if (!args.option("inspect").empty()) {
      const Workload w = loadWorkloadFile(args.option("inspect"));
      inspect(w);
      if (!args.option("export-dir").empty()) {
        const std::filesystem::path dir = args.option("export-dir");
        std::filesystem::create_directories(dir);
        {
          std::ofstream out(dir / "publishes.csv");
          exportPublishesCsv(w, out);
        }
        {
          std::ofstream out(dir / "requests.csv");
          exportRequestsCsv(w, out);
        }
        {
          std::ofstream out(dir / "subscriptions.csv");
          exportSubscriptionsCsv(w, out);
        }
        std::printf("exported CSVs to %s\n", dir.c_str());
      }
      return 0;
    }
    std::fputs(args.help().c_str(), stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
