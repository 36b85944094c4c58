// Lightweight leveled logging to stderr. Simulation hot paths never log;
// this exists for the harness, examples, and debugging. Thread-safe:
// each line is rendered off-lock and written to the sink in one guarded
// insertion, so lines from concurrent experiment cells never interleave.
#pragma once

#include <iosfwd>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

namespace pscd {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Sets the global minimum level; messages below it are dropped.
void setLogLevel(LogLevel level);
LogLevel logLevel();

/// Redirects log output to the given stream (nullptr restores the
/// default, stderr) and returns the previous sink. The stream must
/// outlive all logging; used by tests to capture output.
std::ostream* setLogSink(std::ostream* sink);

/// Emits one log line ("[LEVEL] message") to the sink if enabled.
void logMessage(LogLevel level, std::string_view message);

namespace detail {
/// One line, gated once at construction: a line below logLevel() builds
/// no stream and formats none of its operands.
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {
    if (static_cast<int>(level) >= static_cast<int>(logLevel())) os_.emplace();
  }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;
  ~LogLine() {
    if (os_) logMessage(level_, os_->str());
  }

  template <typename T>
  LogLine& operator<<(const T& v) {
    if (os_) *os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::optional<std::ostringstream> os_;
};
}  // namespace detail

inline detail::LogLine logDebug() { return detail::LogLine(LogLevel::kDebug); }
inline detail::LogLine logInfo() { return detail::LogLine(LogLevel::kInfo); }
inline detail::LogLine logWarn() { return detail::LogLine(LogLevel::kWarn); }
inline detail::LogLine logError() { return detail::LogLine(LogLevel::kError); }

}  // namespace pscd
