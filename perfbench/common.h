// Shared plumbing of the pscd benchmark: the run options, the result
// report (metrics plus correctness checks), an in-memory span tracer,
// and the process probes (clock, RSS, CPU time) every workload uses.
//
// Every workload measures pscd from outside: it times calls into the
// library's public functions and never edits or hooks code under src/.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "pscd/core/runtime.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans ("" = keep them in memory).
  std::string spansPath;
};

/// Monotonic nanoseconds (std::chrono::steady_clock).
std::int64_t nowNs();
/// CPU time the calling thread has used, ns (CLOCK_THREAD_CPUTIME_ID).
/// With paravirtual time accounting the kernel leaves out the time the
/// hypervisor stole from the vCPU, so a single-threaded loop timed with
/// it does not slow down when other tenants load the host.
std::int64_t threadCpuNs();

inline double nsToSeconds(std::int64_t ns) {
  return static_cast<double>(ns) * 1e-9;
}

/// The Clock of the benchmark's own replays: time is whatever the replay
/// last set.
class ManualClock final : public pscd::Clock {
 public:
  pscd::SimTime now() const override { return now_; }
  void advance(pscd::SimTime t) { now_ = t; }

 private:
  pscd::SimTime now_ = 0.0;
};

/// One named measurement. `samples` is how many observations it
/// summarizes (0 when it is a single reading).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Failed correctness checks; the run is correct when this is empty.
  std::vector<std::string> failures;

  void add(std::string name, double value, std::string unit,
           std::uint64_t samples = 0);
  /// Records `what` as a failed check unless `ok`.
  void check(bool ok, std::string what);
  bool correct() const { return failures.empty(); }
};

/// A traced interval: name, start and end (nowNs), the span it belongs
/// to (1-based index into the tracer, 0 for none) and the op id that all
/// spans of one operation share.
struct Span {
  std::uint32_t name = 0;
  std::uint32_t parent = 0;
  std::uint64_t op = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Spans kept in memory during the run and written out once at the end.
/// Not thread-safe: each thread records into its own Tracer, and the
/// owner merges them after joining.
class Tracer {
 public:
  /// Id of a span name; names are interned on first use.
  std::uint32_t intern(std::string_view name);
  /// Appends a span and returns its 1-based index (a parent handle).
  std::uint32_t record(std::uint32_t name, std::uint32_t parent,
                       std::uint64_t op, std::int64_t start,
                       std::int64_t end);
  void reserve(std::size_t n) { spans_.reserve(n); }
  /// Memory the recorded spans occupy, so RSS figures can leave it out.
  double spanMb() const {
    return static_cast<double>(spans_.size() * sizeof(Span)) /
           (1024.0 * 1024.0);
  }
  /// Appends `other`'s spans, re-mapping names and parents.
  void merge(const Tracer& other);

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }

  /// Writes the spans as text: a header line giving the time origin (the
  /// earliest start), then one line per span
  /// "index name parent op start_ns end_ns" with times relative to that
  /// origin. Returns false on I/O error.
  bool write(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// Sum and count of the durations of spans named `name` (ns).
struct SpanTotals {
  std::int64_t sumNs = 0;
  std::uint64_t count = 0;
  double meanNs() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sumNs) /
                            static_cast<double>(count);
  }
};
SpanTotals spanTotals(const Tracer& tracer, std::string_view name);

/// Nearest-rank percentile (q in [0, 100]) of `values`; sorts in place.
/// 0 for an empty vector.
double percentile(std::vector<double>& values, double q);
/// The middle value, or the mean of the two middle values; 0 if empty.
double median(std::vector<double> values);

/// A measurement taken at time `at` (nowNs).
struct Sample {
  std::int64_t at = 0;
  double value = 0.0;
};

/// Splits the samples taken in [start, start + windows * windowNs) into
/// `windows` equal windows and returns the median over the windows of
/// each window's q-th percentile. A short stall of the host then moves
/// one window, not the result.
double windowedPercentile(const std::vector<Sample>& samples,
                          std::int64_t start, std::int64_t windowNs,
                          int windows, double q);

/// Peak resident set of this process (getrusage ru_maxrss), in MB.
double peakRssMb();
/// Current resident set (/proc/self/statm), in MB.
double currentRssMb();

/// The process's CPU use over an interval, and the share of the
/// machine's CPU time the hypervisor stole meanwhile: steal rises when
/// other tenants load the host, which tells host noise from a change in
/// the program.
struct ProcUsage {
  double cpuSeconds = 0.0;
  double stealFrac = 0.0;
};

/// Starts the interval on construction; read() ends it.
class ProcMeter {
 public:
  ProcMeter();
  ProcUsage read() const;

 private:
  double cpu0_;
  double steal0_;
  std::int64_t wall0_;
};

/// Adds proc.cpu_s and proc.steal_frac.
void addProcUsage(Report& report, const ProcUsage& usage);

/// The workloads. Each repeats its set-up and reports the median as
/// setup_s, so one slow set-up does not move it.
Report runServeMixed(const Options& options, Tracer* tracer);
Report runSimNews(const Options& options, Tracer* tracer);
Report runMatchChurn(const Options& options, Tracer* tracer);

}  // namespace perfbench
