// Tests for the shared bench flag parsing (bench/bench_common.h): flags
// override the builtin defaults, and every invalid input surfaces as
// kError with a printable diagnostic instead of exiting.
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_common.h"

namespace pscd::bench {
namespace {

BenchEnvStatus parse(const std::vector<std::string>& flags, BenchEnv* out,
                     std::string* message,
                     const std::vector<BenchOption>& extraOptions = {},
                     std::map<std::string, std::string>* extraValues = nullptr) {
  std::vector<const char*> argv = {"bench_test"};
  for (const std::string& f : flags) argv.push_back(f.c_str());
  return tryParseBenchEnv(static_cast<int>(argv.size()), argv.data(),
                          "bench_test", "test driver", out, message,
                          extraOptions, extraValues);
}

TEST(BenchEnv, BuiltinDefaults) {
  BenchEnv env;
  std::string message;
  ASSERT_EQ(parse({}, &env, &message), BenchEnvStatus::kOk);
  EXPECT_GE(env.jobs, 1u);  // --jobs 0 resolves to hardware concurrency
  EXPECT_DOUBLE_EQ(env.scale, 1.0);
  EXPECT_TRUE(env.csvPath.empty());
}

TEST(BenchEnv, HelpReturnsHelpText) {
  BenchEnv env;
  std::string message;
  EXPECT_EQ(parse({"--help"}, &env, &message), BenchEnvStatus::kHelp);
  EXPECT_NE(message.find("--jobs"), std::string::npos);
  EXPECT_NE(message.find("--scale"), std::string::npos);
}

TEST(BenchEnv, UnknownFlagIsError) {
  BenchEnv env;
  std::string message;
  EXPECT_EQ(parse({"--frobnicate"}, &env, &message),
            BenchEnvStatus::kError);
  EXPECT_NE(message.find("bench_test:"), std::string::npos);
}

TEST(BenchEnv, OutOfRangeScaleIsError) {
  BenchEnv env;
  std::string message;
  EXPECT_EQ(parse({"--scale", "2"}, &env, &message),
            BenchEnvStatus::kError);
  EXPECT_NE(message.find("--scale"), std::string::npos);
}

TEST(BenchEnv, OutOfRangeScaleFromEnvironmentIsError) {
  BenchEnv env;
  std::string message;
  EXPECT_EQ(parse({"--scale", "0"}, &env, &message), BenchEnvStatus::kError);
  EXPECT_NE(message.find("--scale"), std::string::npos);
}

TEST(BenchEnv, NegativeJobsFromEnvironmentIsError) {
  BenchEnv env;
  std::string message;
  EXPECT_EQ(parse({"--jobs", "-1"}, &env, &message), BenchEnvStatus::kError);
  EXPECT_NE(message.find("--jobs"), std::string::npos);
}

TEST(BenchEnv, JobsBeyondUnsignedIsErrorNotWrapped) {
  // 2^32 + 1 would wrap to 1 worker through a cast to unsigned.
  BenchEnv env;
  std::string message;
  EXPECT_EQ(parse({"--jobs", "4294967297"}, &env, &message),
            BenchEnvStatus::kError);
  EXPECT_NE(message.find("--jobs"), std::string::npos);
}

TEST(BenchEnv, MalformedJobsFromEnvironmentIsErrorNotThrow) {
  BenchEnv env;
  std::string message;
  EXPECT_EQ(parse({"--jobs", "many"}, &env, &message), BenchEnvStatus::kError);
  EXPECT_NE(message.find("--jobs"), std::string::npos);
}

// ---- bench-specific extra options (the bench_serve machinery) ---------

std::vector<BenchOption> serveLikeOptions() {
  return {{"mode", "closed or open", "closed"},
          {"qps", "open-loop target rate", "1000"}};
}

TEST(BenchEnv, ExtraOptionBuiltinDefault) {
  BenchEnv env;
  std::string message;
  std::map<std::string, std::string> values;
  ASSERT_EQ(parse({}, &env, &message, serveLikeOptions(), &values),
            BenchEnvStatus::kOk);
  EXPECT_EQ(values.at("mode"), "closed");
  EXPECT_EQ(values.at("qps"), "1000");
}

TEST(BenchEnv, ExtraOptionsAppearInHelpText) {
  BenchEnv env;
  std::string message;
  std::map<std::string, std::string> values;
  EXPECT_EQ(parse({"--help"}, &env, &message, serveLikeOptions(), &values),
            BenchEnvStatus::kHelp);
  EXPECT_NE(message.find("--mode"), std::string::npos);
  EXPECT_NE(message.find("--qps"), std::string::npos);
  EXPECT_NE(message.find("--jobs"), std::string::npos);  // shared core kept
}

TEST(BenchEnv, SharedFlagsStillParseAlongsideExtras) {
  BenchEnv env;
  std::string message;
  std::map<std::string, std::string> values;
  ASSERT_EQ(parse({"--jobs", "3", "--scale", "0.5", "--csv", "flag.csv",
                   "--mode", "open"},
                  &env, &message, serveLikeOptions(), &values),
            BenchEnvStatus::kOk);
  EXPECT_EQ(env.jobs, 3u);
  EXPECT_DOUBLE_EQ(env.scale, 0.5);
  EXPECT_EQ(env.csvPath, "flag.csv");
  EXPECT_EQ(values.at("mode"), "open");
}

TEST(MicroRepeats, MedianOfAnEvenCountIsTheMeanOfTheMiddleTwo) {
  const RepeatSpread spread = summarizeRepeats({40.0, 10.0, 30.0, 20.0});
  EXPECT_DOUBLE_EQ(spread.median, 25.0);
  EXPECT_DOUBLE_EQ(spread.min, 10.0);
  EXPECT_DOUBLE_EQ(spread.max, 40.0);
}

TEST(MicroRepeats, MedianOfAnOddCountIsTheMiddleOne) {
  const RepeatSpread spread = summarizeRepeats({7.0, 3.0, 5.0});
  EXPECT_DOUBLE_EQ(spread.median, 5.0);
  EXPECT_DOUBLE_EQ(spread.min, 3.0);
  EXPECT_DOUBLE_EQ(spread.max, 7.0);
  EXPECT_DOUBLE_EQ(summarizeRepeats({2.5}).median, 2.5);
}

TEST(MicroRepeats, ChecksumMismatchNamesTheRow) {
  EXPECT_EQ(repeatChecksumError("match at 1000", {9, 9, 9}), "");
  const std::string error = repeatChecksumError("match at 1000", {9, 9, 8});
  EXPECT_NE(error.find("match at 1000"), std::string::npos) << error;
  EXPECT_NE(error.find("repeat 3 gave 8"), std::string::npos) << error;
}

}  // namespace
}  // namespace pscd::bench
