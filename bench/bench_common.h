// Shared helpers for the figure/table reproduction binaries.
//
// Every driver accepts:
//   --jobs N   worker threads for the simulation cells (0 = one per
//              hardware thread, the default; 1 = fully serial)
//   --scale F  shrink the canonical workload by F in (0, 1] for smoke
//              runs (1 = the paper's full setup)
//   --csv P    also export every printed table to CSV file P
//
// A driver builds its whole (trace x strategy x config) grid, runs it
// with runCells() (or its own slot-per-task work with runAll(env.jobs,
// tasks)), and renders tables on the main thread from the returned
// metrics. Each cell's metrics land in its own slot and come back in
// cell order regardless of --jobs, so serial and parallel runs of a
// driver emit byte-identical stdout and CSV.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "pscd/pscd.h"
#include "pscd/util/mutex.h"
#include "pscd/util/run_all.h"

namespace pscd::bench {

inline constexpr TraceKind kTraces[] = {TraceKind::kNews,
                                        TraceKind::kAlternative};

/// Strategies shown in figures 4 and 5.
inline constexpr StrategyKind kFigureStrategies[] = {
    StrategyKind::kGDStar, StrategyKind::kSUB, StrategyKind::kSG1,
    StrategyKind::kSG2,    StrategyKind::kSR,  StrategyKind::kDCLAP,
};

inline std::string pct(double ratio) { return formatFixed(100.0 * ratio, 1); }

inline void printHeader(const std::string& title, const std::string& paper) {
  std::printf("==================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("(reproduces %s of Chen, LaPaugh & Singh, Middleware 2003)\n",
              paper.c_str());
  std::printf("==================================================\n\n");
}

/// Common command-line settings of every bench driver.
struct BenchEnv {
  unsigned jobs = 1;       // resolved worker count
  double scale = 1.0;      // workload scale in (0, 1]
  std::string csvPath;     // empty = no CSV export
};

/// Outcome of tryParseBenchEnv: parsed fine, --help was requested (the
/// message holds the help text), or the options were invalid (the
/// message holds the fully formatted diagnostic).
enum class BenchEnvStatus { kOk, kHelp, kError };

/// A driver-specific option registered alongside the shared --jobs /
/// --scale / --csv set, so drivers with extra knobs (bench_serve's
/// --qps, --mode, ...) extend the one parser instead of growing a
/// second ad-hoc one. An explicit flag overrides `defaultValue`.
struct BenchOption {
  std::string name;          // long option name, without the "--"
  std::string help;          // one-line --help description
  std::string defaultValue;  // builtin default
};

/// Testable core of parseBenchEnv: does not print or exit.
inline BenchEnvStatus tryParseBenchEnv(
    int argc, const char* const* argv, const std::string& program,
    const std::string& description, BenchEnv* out, std::string* message,
    const std::vector<BenchOption>& extraOptions = {},
    std::map<std::string, std::string>* extraValues = nullptr) {
  ArgParser parser(program, description);
  parser.addOption("jobs",
                   "worker threads for simulation cells "
                   "(0 = hardware concurrency)",
                   "0");
  parser.addOption("scale",
                   "workload scale factor in (0, 1]; 1 = paper setup", "1");
  parser.addOption("csv", "also write every table to this CSV file", "");
  for (const BenchOption& option : extraOptions) {
    parser.addOption(option.name, option.help, option.defaultValue);
  }
  if (!parser.parse(argc, argv)) {
    if (parser.error().empty()) {
      *message = parser.help();
      return BenchEnvStatus::kHelp;
    }
    *message = program + ": " + parser.error() + "\n" + parser.help();
    return BenchEnvStatus::kError;
  }
  try {
    out->jobs = resolveJobs(parser.optionInt<unsigned>("jobs"));
    out->scale = parser.optionDouble("scale");
  } catch (const std::logic_error& e) {  // invalid_argument, out_of_range
    *message = program + ": " + e.what() + "\n";
    return BenchEnvStatus::kError;
  }
  if (!(out->scale > 0.0 && out->scale <= 1.0)) {
    *message = program + ": --scale must be in (0, 1]\n";
    return BenchEnvStatus::kError;
  }
  out->csvPath = parser.option("csv");
  if (extraValues != nullptr) {
    for (const BenchOption& option : extraOptions) {
      (*extraValues)[option.name] = parser.option(option.name);
    }
  }
  return BenchEnvStatus::kOk;
}

/// Parses the shared bench options (plus any driver-specific extras).
/// Exits on --help (0) or bad usage (2), so drivers can use the result
/// unconditionally.
inline BenchEnv parseBenchEnv(
    int argc, const char* const* argv, const std::string& program,
    const std::string& description,
    const std::vector<BenchOption>& extraOptions = {},
    std::map<std::string, std::string>* extraValues = nullptr) {
  BenchEnv env;
  std::string message;
  const BenchEnvStatus status = tryParseBenchEnv(
      argc, argv, program, description, &env, &message, extraOptions,
      extraValues);
  if (status == BenchEnvStatus::kHelp) {
    std::printf("%s", message.c_str());
    std::exit(0);
  }
  if (status == BenchEnvStatus::kError) {
    std::fprintf(stderr, "%s", message.c_str());
    std::exit(2);
  }
  return env;
}

/// Collects labeled tables and writes them to one CSV file. Each table
/// contributes a header row and its data rows, all prefixed with the
/// table's label, so several tables share a file unambiguously.
///
/// Race-free by construction: add() serializes behind an annotated
/// mutex (drivers call it from the main thread after runAll() has
/// joined, but the sink does not rely on that), and writeTo()
/// first writes a temp file and then renames it into place, so two
/// bench processes pointed at the same --csv path can never interleave
/// partial output.
class CsvSink {
 public:
  void add(const std::string& label, const AsciiTable& table)
      PSCD_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    CsvWriter csv(buffer_);
    csv.field(label);
    for (const std::string& column : table.header()) csv.field(column);
    csv.endRow();
    for (const auto& row : table.rowData()) {
      csv.field(label);
      for (const std::string& cell : row) csv.field(cell);
      csv.endRow();
    }
  }

  /// Writes everything added so far to `path`; no-op when empty. Exits
  /// with an error message if the file cannot be written.
  void writeTo(const std::string& path) PSCD_EXCLUDES(mu_) {
    if (path.empty()) return;
    std::string content;
    {
      MutexLock lock(mu_);
      content = buffer_.str();
    }
    std::string error;
    if (!writeTextFileAtomic(path, content, &error)) {
      std::fprintf(stderr, "csv export: %s\n", error.c_str());
      std::exit(1);
    }
  }

 private:
  Mutex mu_;
  std::ostringstream buffer_ PSCD_GUARDED_BY(mu_);
};

// --- Repeated micro-bench rows ----------------------------------------

/// One row's ns/op over its repeats: the median (the mean of the middle
/// two for an even count), the fastest and the slowest.
struct RepeatSpread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

inline RepeatSpread summarizeRepeats(std::vector<double> nsPerOp) {
  RepeatSpread spread;
  if (nsPerOp.empty()) return spread;
  std::sort(nsPerOp.begin(), nsPerOp.end());
  const std::size_t mid = nsPerOp.size() / 2;
  spread.median = nsPerOp.size() % 2 == 1
                      ? nsPerOp[mid]
                      : (nsPerOp[mid - 1] + nsPerOp[mid]) / 2.0;
  spread.min = nsPerOp.front();
  spread.max = nsPerOp.back();
  return spread;
}

/// Empty when every repeat of `row` produced the same checksum, else the
/// error naming the row and the first repeat that disagrees.
inline std::string repeatChecksumError(
    const std::string& row, const std::vector<std::uint64_t>& checksums) {
  for (std::size_t i = 1; i < checksums.size(); ++i) {
    if (checksums[i] != checksums[0]) {
      return "checksum of " + row + " differs between repeats: repeat 1 " +
             "gave " + std::to_string(checksums[0]) + ", repeat " +
             std::to_string(i + 1) + " gave " + std::to_string(checksums[i]);
    }
  }
  return std::string();
}

// --- BENCH_*.json trajectory histories -------------------------------
//
// Persisted bench histories (BENCH_micro.json, BENCH_serve.json) are
// append-only arrays of timestamped run entries, capped at
// kMicroHistoryLimit, under a top-level schema tag. The repo has a JSON
// *writer* only, so the helpers below splice raw entry objects
// textually: they scan with a string-literal-aware depth counter, never
// interpret numbers, and round-trip unknown fields untouched.

inline constexpr std::size_t kMicroHistoryLimit = 50;

/// Whole file as a string; empty when missing or unreadable (a fresh
/// checkout simply starts a new history).
inline std::string readTextFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::string();
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Splits the top-level `"entries":[...]` array of a history document
/// with the given schema tag into one raw JSON string per entry object.
/// Returns empty for anything that does not carry the tag.
inline std::vector<std::string> extractTrajectoryEntries(
    const std::string& doc, const std::string& schema) {
  std::vector<std::string> entries;
  if (doc.find("\"" + schema + "\"") == std::string::npos) return entries;
  const std::size_t tag = doc.find("\"entries\":[");
  if (tag == std::string::npos) return entries;
  std::size_t i = tag + std::string("\"entries\":[").size();
  int depth = 0;
  bool inString = false;
  std::size_t start = std::string::npos;
  for (; i < doc.size(); ++i) {
    const char c = doc[i];
    if (inString) {
      if (c == '\\') {
        ++i;  // skip the escaped character
      } else if (c == '"') {
        inString = false;
      }
      continue;
    }
    if (c == '"') {
      inString = true;
    } else if (c == '{') {
      if (depth == 0) start = i;
      ++depth;
    } else if (c == '}') {
      --depth;
      if (depth == 0 && start != std::string::npos) {
        entries.push_back(doc.substr(start, i - start + 1));
        start = std::string::npos;
      }
    } else if (c == ']' && depth == 0) {
      return entries;  // end of the entries array
    }
  }
  return std::vector<std::string>();  // truncated document: start fresh
}

/// The micro-bench history (schema pscd-bench-micro-v2).
inline std::vector<std::string> extractMicroEntries(const std::string& doc) {
  return extractTrajectoryEntries(doc, "pscd-bench-micro-v2");
}

/// Renders a full history document under `schema` from raw entry
/// objects, keeping only the newest `limit` entries (the tail of the
/// vector).
inline std::string renderTrajectoryHistory(
    const std::string& schema, const std::vector<std::string>& entries,
    std::size_t limit = kMicroHistoryLimit) {
  const std::size_t begin =
      entries.size() > limit ? entries.size() - limit : 0;
  std::string out = "{\"schema\":\"" + schema + "\",\"entries\":[";
  for (std::size_t i = begin; i < entries.size(); ++i) {
    if (i > begin) out += ',';
    out += entries[i];
  }
  out += "]}";
  return out;
}

/// The micro-bench history document (schema pscd-bench-micro-v2).
inline std::string renderMicroHistory(
    const std::vector<std::string>& entries,
    std::size_t limit = kMicroHistoryLimit) {
  return renderTrajectoryHistory("pscd-bench-micro-v2", entries, limit);
}

}  // namespace pscd::bench
