#include "common.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

namespace perfbench {

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t threadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void Report::add(std::string name, double value, std::string unit,
                 std::uint64_t samples) {
  metrics.push_back({std::move(name), value, std::move(unit), samples});
}

void Report::check(bool ok, std::string what) {
  if (!ok) failures.push_back(std::move(what));
}

std::uint32_t Tracer::intern(std::string_view name) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) {
    return static_cast<std::uint32_t>(it - names_.begin());
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t Tracer::record(std::uint32_t name, std::uint32_t parent,
                             std::uint64_t op, std::int64_t start,
                             std::int64_t end) {
  spans_.push_back({name, parent, op, start, end});
  return static_cast<std::uint32_t>(spans_.size());
}

void Tracer::merge(const Tracer& other) {
  std::vector<std::uint32_t> nameMap;
  nameMap.reserve(other.names_.size());
  for (const std::string& n : other.names_) nameMap.push_back(intern(n));
  const auto base = static_cast<std::uint32_t>(spans_.size());
  spans_.reserve(spans_.size() + other.spans_.size());
  for (Span s : other.spans_) {
    s.name = nameMap[s.name];
    if (s.parent != 0) s.parent += base;
    spans_.push_back(s);
  }
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t origin = spans_.empty() ? 0 : spans_.front().start;
  for (const Span& s : spans_) origin = std::min(origin, s.start);
  std::fprintf(f, "# origin_ns %lld\n# index name parent op start_ns end_ns\n",
               static_cast<long long>(origin));
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu %s %u %llu %lld %lld\n", i + 1,
                 names_[s.name].c_str(), s.parent,
                 static_cast<unsigned long long>(s.op),
                 static_cast<long long>(s.start - origin),
                 static_cast<long long>(s.end - origin));
  }
  return std::fclose(f) == 0;
}

SpanTotals spanTotals(const Tracer& tracer, std::string_view name) {
  SpanTotals totals;
  const auto& names = tracer.names();
  const auto it = std::find(names.begin(), names.end(), name);
  if (it == names.end()) return totals;
  const auto id = static_cast<std::uint32_t>(it - names.begin());
  for (const Span& s : tracer.spans()) {
    if (s.name != id) continue;
    totals.sumNs += s.end - s.start;
    ++totals.count;
  }
  return totals;
}

double percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least q% of the samples at
  // or below it.
  const double rank = q / 100.0 * static_cast<double>(values.size());
  std::size_t index = static_cast<std::size_t>(rank);
  if (static_cast<double>(index) < rank) ++index;
  index = std::clamp<std::size_t>(index, 1, values.size());
  return values[index - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

double windowedPercentile(const std::vector<Sample>& samples,
                          std::int64_t start, std::int64_t windowNs,
                          int windows, double q) {
  std::vector<std::vector<double>> perWindow(
      static_cast<std::size_t>(std::max(windows, 0)));
  for (const Sample& s : samples) {
    if (s.at < start) continue;
    const std::int64_t w = (s.at - start) / windowNs;
    if (w < windows) perWindow[static_cast<std::size_t>(w)].push_back(s.value);
  }
  std::vector<double> results;
  for (std::vector<double>& values : perWindow) {
    if (!values.empty()) results.push_back(percentile(values, q));
  }
  return median(std::move(results));
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double currentRssMb() {
  std::ifstream statm("/proc/self/statm");
  long long sizePages = 0;
  long long residentPages = 0;
  statm >> sizePages >> residentPages;
  return static_cast<double>(residentPages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

namespace {

double cpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Steal time of all CPUs so far (the 8th value of /proc/stat's "cpu"
/// line), in seconds; 0 where the kernel does not report it.
double stealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  long long value = 0;
  long long steal = 0;
  stat >> cpu;
  for (int field = 1; field <= 8 && stat >> value; ++field) {
    if (field == 8) steal = value;
  }
  return static_cast<double>(steal) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

}  // namespace

ProcMeter::ProcMeter()
    : cpu0_(cpuSeconds()), steal0_(stealSeconds()), wall0_(nowNs()) {}

ProcUsage ProcMeter::read() const {
  const double cpus = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  const double wall = nsToSeconds(nowNs() - wall0_);
  return {cpuSeconds() - cpu0_, (stealSeconds() - steal0_) / (wall * cpus)};
}

void addProcUsage(Report& report, const ProcUsage& usage) {
  report.add("proc.cpu_s", usage.cpuSeconds, "s");
  report.add("proc.steal_frac", usage.stealFrac, "fraction");
}

}  // namespace perfbench
