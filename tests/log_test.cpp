#include "pscd/util/log.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace pscd {
namespace {

class LogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    old_ = std::cerr.rdbuf(captured_.rdbuf());
    setLogLevel(LogLevel::kInfo);
  }
  void TearDown() override {
    std::cerr.rdbuf(old_);
    setLogLevel(LogLevel::kInfo);
  }
  std::ostringstream captured_;
  std::streambuf* old_ = nullptr;
};

TEST_F(LogTest, InfoEmitsAtInfoLevel) {
  logInfo() << "hello " << 42;
  EXPECT_EQ(captured_.str(), "[INFO] hello 42\n");
}

// Counts how often it is formatted.
struct FormatCounter {
  int* calls;
};
std::ostream& operator<<(std::ostream& os, const FormatCounter& c) {
  ++*c.calls;
  return os << "counted";
}

TEST_F(LogTest, DebugSuppressedAtInfoLevel) {
  int calls = 0;
  logDebug() << "nope " << FormatCounter{&calls};
  EXPECT_TRUE(captured_.str().empty());
  EXPECT_EQ(calls, 0);  // a disabled line formats none of its operands
  logInfo() << FormatCounter{&calls};
  EXPECT_EQ(calls, 1);
}

TEST_F(LogTest, LevelFiltering) {
  setLogLevel(LogLevel::kError);
  logWarn() << "warn";
  EXPECT_TRUE(captured_.str().empty());
  logError() << "bad";
  EXPECT_EQ(captured_.str(), "[ERROR] bad\n");
}

TEST_F(LogTest, SinkRedirectAndRestore) {
  std::ostringstream sink;
  std::ostream* previous = setLogSink(&sink);
  EXPECT_EQ(previous, nullptr);
  logInfo() << "to the sink";
  EXPECT_EQ(sink.str(), "[INFO] to the sink\n");
  EXPECT_TRUE(captured_.str().empty());  // nothing hit stderr
  EXPECT_EQ(setLogSink(nullptr), &sink);
  logInfo() << "back to stderr";
  EXPECT_EQ(captured_.str(), "[INFO] back to stderr\n");
}

TEST_F(LogTest, EightThreadStressNoTornLines) {
  // Satellite 1 regression test: 8 threads hammer the logger; every
  // captured line must be exactly one writer's full message — a torn or
  // interleaved line would fail the per-line format check below.
  constexpr int kThreads = 8;
  constexpr int kLinesPerThread = 500;
  std::ostringstream sink;
  setLogSink(&sink);
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t] {
      for (int i = 0; i < kLinesPerThread; ++i) {
        logInfo() << "thread " << t << " line " << i << " payload "
                  << std::string(32, 'a' + static_cast<char>(t));
      }
    });
  }
  for (std::thread& w : writers) w.join();
  setLogSink(nullptr);

  std::map<int, int> perThread;
  std::istringstream in(sink.str());
  std::string line;
  int total = 0;
  while (std::getline(in, line)) {
    ++total;
    int t = -1, i = -1;
    char payload[64] = {0};
    ASSERT_EQ(std::sscanf(line.c_str(),
                          "[INFO] thread %d line %d payload %63s", &t, &i,
                          payload),
              3)
        << "torn line: " << line;
    ASSERT_GE(t, 0);
    ASSERT_LT(t, kThreads);
    EXPECT_EQ(std::string(payload),
              std::string(32, 'a' + static_cast<char>(t)))
        << "interleaved payload: " << line;
    ++perThread[t];
  }
  EXPECT_EQ(total, kThreads * kLinesPerThread);
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(perThread[t], kLinesPerThread);
}

TEST_F(LogTest, LevelRoundTrip) {
  setLogLevel(LogLevel::kDebug);
  EXPECT_EQ(logLevel(), LogLevel::kDebug);
  logDebug() << "dbg";
  EXPECT_EQ(captured_.str(), "[DEBUG] dbg\n");
}

}  // namespace
}  // namespace pscd
