#include "pscd/util/args.h"

#include <gtest/gtest.h>

namespace pscd {
namespace {

ArgParser makeParser() {
  ArgParser p("prog", "test program");
  p.addOption("name", "a string", "default");
  p.addOption("count", "an integer", "3");
  p.addOption("ratio", "a double", "0.5");
  p.addFlag("verbose", "talk more");
  return p;
}

bool parse(ArgParser& p, std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return p.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgsTest, DefaultsApply) {
  auto p = makeParser();
  ASSERT_TRUE(parse(p, {}));
  EXPECT_EQ(p.option("name"), "default");
  EXPECT_EQ(p.optionInt("count"), 3);
  EXPECT_DOUBLE_EQ(p.optionDouble("ratio"), 0.5);
  EXPECT_FALSE(p.flag("verbose"));
}

TEST(ArgsTest, SpaceSeparatedValues) {
  auto p = makeParser();
  ASSERT_TRUE(parse(p, {"--name", "abc", "--count", "42"}));
  EXPECT_EQ(p.option("name"), "abc");
  EXPECT_EQ(p.optionInt("count"), 42);
}

TEST(ArgsTest, EqualsSeparatedValues) {
  auto p = makeParser();
  ASSERT_TRUE(parse(p, {"--ratio=0.25", "--name=x=y"}));
  EXPECT_DOUBLE_EQ(p.optionDouble("ratio"), 0.25);
  EXPECT_EQ(p.option("name"), "x=y");
}

TEST(ArgsTest, FlagsParse) {
  auto p = makeParser();
  ASSERT_TRUE(parse(p, {"--verbose"}));
  EXPECT_TRUE(p.flag("verbose"));
}

TEST(ArgsTest, HelpReturnsFalseWithoutError) {
  auto p = makeParser();
  EXPECT_FALSE(parse(p, {"--help"}));
  EXPECT_TRUE(p.error().empty());
  EXPECT_NE(p.help().find("--count"), std::string::npos);
  EXPECT_NE(p.help().find("default: 3"), std::string::npos);
}

TEST(ArgsTest, ErrorsReported) {
  auto p = makeParser();
  EXPECT_FALSE(parse(p, {"--nope"}));
  EXPECT_NE(p.error().find("unknown option"), std::string::npos);
  EXPECT_FALSE(parse(p, {"--name"}));
  EXPECT_NE(p.error().find("missing value"), std::string::npos);
  EXPECT_FALSE(parse(p, {"positional"}));
  EXPECT_NE(p.error().find("positional"), std::string::npos);
  EXPECT_FALSE(parse(p, {"--verbose=1"}));
  EXPECT_NE(p.error().find("takes no value"), std::string::npos);
}

TEST(ArgsTest, TypeErrorsThrow) {
  auto p = makeParser();
  ASSERT_TRUE(parse(p, {"--count", "abc", "--ratio", "x"}));
  EXPECT_THROW(p.optionInt("count"), std::invalid_argument);
  EXPECT_THROW(p.optionDouble("ratio"), std::invalid_argument);
}

TEST(ArgsTest, UndeclaredAccessThrows) {
  auto p = makeParser();
  ASSERT_TRUE(parse(p, {}));
  EXPECT_THROW(p.option("missing"), std::logic_error);
  EXPECT_THROW(p.flag("name"), std::logic_error);    // option, not flag
  EXPECT_THROW(p.option("verbose"), std::logic_error);  // flag, not option
}

TEST(ArgsTest, MalformedInputRejectedWithNamedError) {
  auto p = makeParser();
  EXPECT_FALSE(parse(p, {"--"}));
  EXPECT_NE(p.error().find("missing option name"), std::string::npos);
  EXPECT_FALSE(parse(p, {"--=value"}));
  EXPECT_NE(p.error().find("missing option name"), std::string::npos);
  EXPECT_FALSE(parse(p, {nullptr}));
  EXPECT_NE(p.error().find("null argument"), std::string::npos);
}

TEST(ArgsTest, NonFiniteAndOverflowingDoublesThrow) {
  auto p = makeParser();
  ASSERT_TRUE(parse(p, {"--ratio", "nan"}));
  EXPECT_THROW(p.optionDouble("ratio"), std::invalid_argument);
  ASSERT_TRUE(parse(p, {"--ratio", "inf"}));
  EXPECT_THROW(p.optionDouble("ratio"), std::invalid_argument);
  ASSERT_TRUE(parse(p, {"--ratio", "1e999"}));
  EXPECT_THROW(p.optionDouble("ratio"), std::invalid_argument);
  ASSERT_TRUE(parse(p, {"--ratio", "0x1p2"}));  // hexfloat stays accepted
  EXPECT_DOUBLE_EQ(p.optionDouble("ratio"), 4.0);
}

TEST(ArgsTest, EmbeddedJunkBytesAreJustStrings) {
  auto p = makeParser();
  ASSERT_TRUE(parse(p, {"--name", "\x01\xff\x7f"}));
  EXPECT_EQ(p.option("name"), "\x01\xff\x7f");
  ASSERT_TRUE(parse(p, {"--count", "9223372036854775807"}));
  EXPECT_EQ(p.optionInt("count"), 9223372036854775807ll);
  ASSERT_TRUE(parse(p, {"--count", "9223372036854775808"}));  // overflow
  EXPECT_THROW(p.optionInt("count"), std::invalid_argument);
}

TEST(ArgsTest, NarrowIntegersAreRangeCheckedNotWrapped) {
  auto p = makeParser();
  ASSERT_TRUE(parse(p, {"--count", "65535"}));
  EXPECT_EQ(p.optionInt<std::uint16_t>("count"), 65535u);
  ASSERT_TRUE(parse(p, {"--count", "70000"}));
  EXPECT_THROW(p.optionInt<std::uint16_t>("count"), std::out_of_range);
  EXPECT_EQ(p.optionInt<std::uint32_t>("count"), 70000u);
  ASSERT_TRUE(parse(p, {"--count", "-1"}));
  EXPECT_THROW(p.optionInt<std::size_t>("count"), std::out_of_range);
  EXPECT_EQ(p.optionInt("count"), -1);
  try {
    p.optionInt<std::uint16_t>("count");
    FAIL() << "-1 fits no unsigned field";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "option --count: -1 is outside [0, 65535]");
  }
  // A value that is no integer at all stays an invalid_argument.
  EXPECT_THROW(parseIntOption<std::uint16_t>("connect", "80x"),
               std::invalid_argument);
  EXPECT_EQ(parseIntOption<std::uint16_t>("connect", "8080"), 8080u);
}

TEST(ArgsTest, ReparseResetsState) {
  auto p = makeParser();
  ASSERT_TRUE(parse(p, {"--verbose", "--name", "a"}));
  ASSERT_TRUE(parse(p, {}));
  EXPECT_FALSE(p.flag("verbose"));
  EXPECT_EQ(p.option("name"), "default");
}

}  // namespace
}  // namespace pscd
