// Unit tests for pscd_lint: lexer edge cases, every rule firing and not
// over-firing, suppression directives, and driver exit codes. Violation
// snippets live in string literals, which the linter's own lexer strips
// — so this file stays clean under the repo-wide `lint.repo_clean` run.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lexer.h"
#include "lint.h"
#include "rules.h"

namespace pscd_lint {
namespace {

std::vector<Finding> run(const std::string& path, const std::string& src,
                         bool strict = false) {
  return lintSource(path, src, DeclInfo{}, strict);
}

std::string writeTemp(const std::string& name, const std::string& content) {
  const std::string path = testing::TempDir() + name;
  std::ofstream out(path, std::ios::binary);
  out << content;
  return path;
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(Lexer, TokensCarryLineNumbers) {
  const LexResult r = lex("int a;\nint b;\n");
  ASSERT_EQ(r.tokens.size(), 6u);
  EXPECT_EQ(r.tokens[0].text, "int");
  EXPECT_EQ(r.tokens[0].line, 1);
  EXPECT_EQ(r.tokens[3].text, "int");
  EXPECT_EQ(r.tokens[3].line, 2);
  EXPECT_EQ(r.tokens[4].text, "b");
}

TEST(Lexer, CommentsAndStringsAreStripped) {
  const LexResult r =
      lex("int a = /* hidden */ 3; // tail\nconst char* s = \"mt19937\";\n");
  for (const Token& t : r.tokens) {
    EXPECT_NE(t.text, "hidden");
    EXPECT_NE(t.text, "tail");
    EXPECT_NE(t.text, "mt19937");  // string contents never become idents
  }
  // The string survives as a contentless placeholder token.
  int strings = 0;
  for (const Token& t : r.tokens)
    if (t.kind == Token::Kind::kString) ++strings;
  EXPECT_EQ(strings, 1);
}

TEST(Lexer, RawStringContentsAreInvisible) {
  const LexResult r = lex("auto s = R\"xx(rand() \" assert( )xx\";\nint z;\n");
  for (const Token& t : r.tokens) {
    EXPECT_NE(t.text, "rand");
    EXPECT_NE(t.text, "assert");
  }
  // Tokens after the raw string still lex on the right line.
  EXPECT_EQ(r.tokens.back().line, 2);
}

TEST(Lexer, ShiftRightIsSplitForTemplateMatching) {
  const LexResult r = lex("a >> b;");
  ASSERT_EQ(r.tokens.size(), 5u);
  EXPECT_EQ(r.tokens[1].text, ">");
  EXPECT_EQ(r.tokens[2].text, ">");
}

TEST(Lexer, PreprocessorLinesAreSkipped) {
  const LexResult r = lex("#include <chrono>\n#define WIDE 1\nint x;\n");
  ASSERT_EQ(r.tokens.size(), 3u);
  EXPECT_EQ(r.tokens[0].text, "int");
  EXPECT_EQ(r.tokens[0].line, 3);
}

TEST(Lexer, DirectiveInsidePreprocessorCommentIsSeen) {
  const LexResult r =
      lex("#define X 1  // pscd-lint: allow-file(wall-clock)\nint x;\n");
  EXPECT_EQ(r.directives.allowFile.count("wall-clock"), 1u);
}

TEST(Lexer, TrailingDirectiveTargetsItsOwnLine) {
  const LexResult r = lex("int a;\nint b;  // pscd-lint: allow(bare-assert)\n");
  ASSERT_EQ(r.directives.allow.count(2), 1u);
  EXPECT_EQ(r.directives.allow.at(2).count("bare-assert"), 1u);
}

TEST(Lexer, StandaloneDirectiveTargetsNextTokenLine) {
  const LexResult r = lex(
      "int a;\n"
      "// pscd-lint: allow(bare-assert) skip the blank line below\n"
      "\n"
      "int b;\n");
  ASSERT_EQ(r.directives.allow.count(4), 1u);
  EXPECT_EQ(r.directives.allow.at(4).count("bare-assert"), 1u);
}

TEST(Lexer, MultipleGroupsAndJustificationText) {
  const LexResult r = lex(
      "int a;  // pscd-lint: allow(bare-assert, naked-new) "
      "expect(wall-clock) reason text here\n");
  EXPECT_EQ(r.directives.allow.at(1).size(), 2u);
  EXPECT_EQ(r.directives.expect.at(1).count("wall-clock"), 1u);
  EXPECT_TRUE(r.directives.errors.empty());
}

TEST(Lexer, MalformedDirectiveIsRecorded) {
  const LexResult r = lex("int a;  // pscd-lint: bogus-no-parens\n");
  ASSERT_EQ(r.directives.errors.size(), 1u);
  EXPECT_EQ(r.directives.errors[0].first, 1);
}

TEST(Lexer, AsPathDirectiveIsCaptured) {
  const LexResult r = lex("// pscd-lint: as-path(src/pscd/x.cpp)\nint a;\n");
  EXPECT_EQ(r.directives.asPath, "src/pscd/x.cpp");
}

// ---------------------------------------------------------------------------
// Declaration harvesting
// ---------------------------------------------------------------------------

TEST(Decls, HarvestsUnorderedPtrVectorAndFloatNames) {
  const LexResult r = lex(
      "std::unordered_map<int, long> pages_;\n"
      "std::vector<Widget*> widgets_;\n"
      "std::vector<int> plain_;\n"
      "double ratio_ = 0.0;\n");
  const DeclInfo d = collectDecls(r.tokens);
  EXPECT_EQ(d.unorderedNames.count("pages_"), 1u);
  EXPECT_EQ(d.ptrVectorNames.count("widgets_"), 1u);
  EXPECT_EQ(d.ptrVectorNames.count("plain_"), 0u);
  EXPECT_EQ(d.floatNames.count("ratio_"), 1u);
}

// ---------------------------------------------------------------------------
// Rules: each must fire, and must not over-fire
// ---------------------------------------------------------------------------

TEST(Rules, WallClockFires) {
  const auto f =
      run("src/pscd/a.cpp", "auto t0 = std::chrono::steady_clock::now();\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "wall-clock");
}

TEST(Rules, WallClockAllowsTheShim) {
  EXPECT_TRUE(run("src/pscd/util/wallclock.h",
                  "auto t0 = std::chrono::steady_clock::now();\n")
                  .empty());
}

TEST(Rules, WallClockIgnoresMemberNamedTime) {
  EXPECT_TRUE(run("src/pscd/a.cpp", "double t = request.time();\n").empty());
}

TEST(Rules, RandomSourceFires) {
  const auto f = run("bench/a.cpp", "std::mt19937 gen(1);\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "random-source");
  const auto g = run("bench/a.cpp", "int r = rand() % 3;\n");
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g[0].rule, "random-source");
}

TEST(Rules, UnorderedIterFiresOnlyInCoreWithOutput) {
  const std::string src =
      "std::unordered_map<int, int> m;\n"
      "void f(std::ostream& os) {\n"
      "  for (const auto& kv : m) { os << kv.first; }\n"
      "}\n";
  const auto f = run("src/pscd/cache/a.cpp", src);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "unordered-iter");
  EXPECT_EQ(f[0].line, 3);
  // Out of scope: same code under bench/ is exempt.
  EXPECT_TRUE(run("bench/a.cpp", src).empty());
  // No output sink in the file: the fold cannot leak ordering.
  EXPECT_TRUE(run("src/pscd/cache/a.cpp",
                  "std::unordered_map<int, int> m;\n"
                  "int f() { int s = 0; for (const auto& kv : m) s += "
                  "kv.second; return s; }\n")
                  .empty());
}

TEST(Rules, UnorderedMembershipTestDoesNotFire) {
  EXPECT_TRUE(run("src/pscd/cache/a.cpp",
                  "std::unordered_map<int, int> m;\n"
                  "void f(std::ostream& os) {\n"
                  "  if (m.find(1) != m.end()) os << 1;\n"
                  "}\n")
                  .empty());
}

TEST(Rules, UnorderedIterUsesSiblingHeaderDecls) {
  DeclInfo header;
  header.unorderedNames.insert("m");
  const auto f = lintSource("src/pscd/cache/a.cpp",
                            "void f(std::ostream& os) {\n"
                            "  for (const auto& kv : m) { os << kv.first; }\n"
                            "}\n",
                            header, /*strict=*/false);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "unordered-iter");
}

TEST(Rules, PtrOrderFires) {
  const auto f = run("src/pscd/a.cpp", "std::less<Node*> cmp;\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "ptr-order");
  const auto g = run("src/pscd/a.cpp", "bool b = a.get() < c.get();\n");
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g[0].rule, "ptr-order");
  // Identity comparison is fine; so is std::less over a value type.
  EXPECT_TRUE(run("src/pscd/a.cpp", "bool b = a.get() == raw;\n").empty());
  EXPECT_TRUE(run("src/pscd/a.cpp", "std::less<int> cmp;\n").empty());
}

TEST(Rules, PtrSortFiresWithoutComparator) {
  const std::string decl = "std::vector<Page*> pages;\n";
  const auto f =
      run("src/pscd/a.cpp", decl + "void f() { std::sort(pages.begin(), pages.end()); }\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "ptr-sort");
  EXPECT_TRUE(run("src/pscd/a.cpp",
                  decl +
                      "void f() { std::sort(pages.begin(), pages.end(), "
                      "byId); }\n")
                  .empty());
  // Value containers sort fine without a comparator.
  EXPECT_TRUE(run("src/pscd/a.cpp",
                  "std::vector<int> ids;\n"
                  "void f() { std::sort(ids.begin(), ids.end()); }\n")
                  .empty());
}

TEST(Rules, BareAssertFires) {
  const auto f = run("src/pscd/a.cpp", "void f(int x) { assert(x > 0); }\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "bare-assert");
  EXPECT_TRUE(
      run("src/pscd/a.cpp", "static_assert(true, \"compile time\");\n")
          .empty());
}

TEST(Rules, ThrowSiteFiresOnNonStdThrows) {
  const auto f = run("src/pscd/a.cpp", "void f() { throw 42; }\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "throw-site");
  const auto g = run("src/pscd/a.cpp", "void f() { throw MyError{}; }\n");
  ASSERT_EQ(g.size(), 1u);
  // Sanctioned: typed std:: construction, bare rethrow, check.h itself.
  EXPECT_TRUE(
      run("src/pscd/a.cpp",
          "void f() { throw std::invalid_argument(\"bad arg\"); }\n")
          .empty());
  EXPECT_TRUE(
      run("src/pscd/a.cpp", "void f() { try { g(); } catch (...) { throw; } }\n")
          .empty());
  EXPECT_TRUE(
      run("src/pscd/util/check.h", "void f() { throw CheckFailure(msg); }\n")
          .empty());
}

TEST(Rules, FloatCompareFiresOutsideTests) {
  const std::string src = "bool f(double a) { return a == 0.5; }\n";
  const auto f = run("src/pscd/a.cpp", src);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "float-compare");
  EXPECT_TRUE(run("tests/a_test.cpp", src).empty());
  // Integer equality is silent.
  EXPECT_TRUE(
      run("src/pscd/a.cpp", "bool f(int a, int b) { return a == b; }\n")
          .empty());
}

TEST(Rules, NakedNewFiresInLibraryOnly) {
  const std::string src = "void f() { int* p = new int; delete p; }\n";
  const auto f = run("src/pscd/a.cpp", src);
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0].rule, "naked-new");
  EXPECT_TRUE(run("bench/a.cpp", src).empty());
  // Deleted special members are not deallocations.
  EXPECT_TRUE(
      run("src/pscd/a.cpp", "struct S { S(const S&) = delete; };\n").empty());
}

TEST(Rules, EnvAccessFiresEverywhere) {
  const std::string src = "const char* h = std::getenv(\"HOME\");\n";
  // bench_common.h, once the sanctioned home, gets no exemption either.
  for (const char* path : {"src/pscd/a.cpp", "bench/bench_common.h"}) {
    const auto f = run(path, src);
    ASSERT_EQ(f.size(), 1u) << path;
    EXPECT_EQ(f[0].rule, "env-access");
  }
}

// ---------------------------------------------------------------------------
// Suppressions and strict hygiene
// ---------------------------------------------------------------------------

TEST(Suppressions, AllowSuppressesOnItsLine) {
  const auto f = run("src/pscd/a.cpp",
                     "void f(int x) { assert(x); }  "
                     "// pscd-lint: allow(bare-assert) justified\n");
  EXPECT_TRUE(f.empty());
}

TEST(Suppressions, AllowFileSuppressesEverywhere) {
  const auto f = run("src/pscd/a.cpp",
                     "// pscd-lint: allow-file(bare-assert) whole file\n"
                     "void f(int x) { assert(x); }\n"
                     "void g(int x) { assert(x); }\n");
  EXPECT_TRUE(f.empty());
}

TEST(Suppressions, AllowDoesNotLeakToOtherLines) {
  const auto f = run("src/pscd/a.cpp",
                     "void f(int x) { assert(x); }  "
                     "// pscd-lint: allow(bare-assert) this line only\n"
                     "void g(int x) { assert(x); }\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].line, 2);
}

TEST(Strict, UnusedAllowIsFlagged) {
  const std::string src =
      "int x = 1;  // pscd-lint: allow(bare-assert) nothing here\n";
  EXPECT_TRUE(run("src/pscd/a.cpp", src, /*strict=*/false).empty());
  const auto f = run("src/pscd/a.cpp", src, /*strict=*/true);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "lint-directive");
}

TEST(Strict, UnknownRuleInAllowIsFlagged) {
  const auto f = run("src/pscd/a.cpp",
                     "int x = 1;  // pscd-lint: allow(no-such-rule)\n",
                     /*strict=*/true);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "lint-directive");
}

TEST(Strict, LintDirectiveFindingsAreSuppressible) {
  // Files documenting the directive syntax carry
  // allow-file(lint-directive); their example text must not fail strict.
  const auto f = run("src/pscd/a.cpp",
                     "// pscd-lint: allow-file(lint-directive) docs below\n"
                     "// pscd-lint: malformed example with no verb\n"
                     "int x = 1;\n",
                     /*strict=*/true);
  EXPECT_TRUE(f.empty());
}

TEST(Suppressions, AsPathControlsScopeButNotDisplayPath) {
  const auto f = run("tests/fixture.cpp",
                     "// pscd-lint: as-path(src/pscd/sim/x.cpp)\n"
                     "bool f(double a) { return a == 0.5; }\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "float-compare");
  EXPECT_EQ(f[0].path, "tests/fixture.cpp");
}

// ---------------------------------------------------------------------------
// Driver exit codes
// ---------------------------------------------------------------------------

int runWith(const std::vector<std::string>& args, std::string* output) {
  std::ostringstream out, err;
  const int code = runLint(args, out, err);
  if (output != nullptr) *output = out.str() + err.str();
  return code;
}

TEST(Driver, NoPathsIsUsageError) {
  std::string output;
  EXPECT_EQ(runWith({}, &output), 2);
  EXPECT_NE(output.find("usage:"), std::string::npos);
}

TEST(Driver, UnknownOptionIsUsageError) {
  EXPECT_EQ(runWith({"--frobnicate", "src"}, nullptr), 2);
}

TEST(Driver, MissingExcludeArgumentIsUsageError) {
  EXPECT_EQ(runWith({"src", "--exclude"}, nullptr), 2);
}

TEST(Driver, NonexistentPathIsIoError) {
  EXPECT_EQ(runWith({"no/such/path"}, nullptr), 2);
}

TEST(Driver, ListRulesSucceedsAndNamesEveryRule) {
  std::string output;
  EXPECT_EQ(runWith({"--list-rules"}, &output), 0);
  for (const Rule& r : ruleRegistry()) {
    EXPECT_NE(output.find(r.name), std::string::npos) << r.name;
  }
}

TEST(Driver, CleanFileExitsZero) {
  const std::string path =
      writeTemp("pscd_lint_clean.cpp", "int answer() { return 42; }\n");
  std::string output;
  EXPECT_EQ(runWith({path}, &output), 0);
  EXPECT_NE(output.find("clean"), std::string::npos);
}

TEST(Driver, FindingsExitOneWithMachineReadableLines) {
  const std::string path =
      writeTemp("pscd_lint_dirty.cpp", "std::mt19937 gen(1);\n");
  std::string output;
  EXPECT_EQ(runWith({path}, &output), 1);
  EXPECT_NE(output.find(":1:random-source:"), std::string::npos);
}

TEST(Driver, FixHintsPrintsRemediation) {
  const std::string path =
      writeTemp("pscd_lint_hint.cpp", "std::mt19937 gen(1);\n");
  std::string output;
  EXPECT_EQ(runWith({"--fix-hints", path}, &output), 1);
  EXPECT_NE(output.find("hint:"), std::string::npos);
}

TEST(Driver, CheckFixturesPassesAndFails) {
  namespace fs = std::filesystem;
  const std::string dir = testing::TempDir() + "pscd_lint_fixture_dir/";
  fs::create_directories(dir);
  // A corpus whose expectation fires: only the coverage check fails,
  // because one file cannot exercise all rules.
  std::ofstream(dir + "fires.cpp")
      << "std::mt19937 gen(1);  // pscd-lint: expect(random-source)\n";
  std::string output;
  EXPECT_EQ(runWith({"--check-fixtures", dir + "fires.cpp"}, &output), 1);
  EXPECT_NE(output.find("no firing fixture"), std::string::npos);
  // An expectation that does not fire is a mismatch.
  std::ofstream(dir + "silent.cpp")
      << "int x = 1;  // pscd-lint: expect(random-source)\n";
  EXPECT_EQ(runWith({"--check-fixtures", dir + "silent.cpp"}, &output), 1);
  EXPECT_NE(output.find("DID NOT FIRE"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Hot regions and the performance rule pack
// ---------------------------------------------------------------------------

TEST(HotRegions, HarvestsNameParamsAndBody) {
  const LexResult r = lex(
      "PSCD_HOT int fast(int a) { return a; }\n"
      "int cold(int b) { return b; }\n"
      "PSCD_HOT void decl(std::vector<int> xs);\n");
  const auto regions = collectHotRegions(r.tokens);
  ASSERT_EQ(regions.size(), 2u);
  EXPECT_EQ(regions[0].name, "fast");
  EXPECT_GT(regions[0].paramEnd, regions[0].paramBegin);
  EXPECT_GT(regions[0].bodyBegin, regions[0].paramEnd);
  EXPECT_GT(regions[0].bodyEnd, regions[0].bodyBegin);
  EXPECT_EQ(regions[1].name, "decl");
  EXPECT_EQ(regions[1].bodyBegin, -1);  // declaration-only
}

TEST(HotRegions, SkipsNoexceptAndMemberInitParens) {
  const LexResult r = lex(
      "struct S {\n"
      "  int v;\n"
      "  PSCD_HOT explicit S(int a) noexcept : v(a) { v += 1; }\n"
      "};\n");
  const auto regions = collectHotRegions(r.tokens);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].name, "S");
  ASSERT_GE(regions[0].bodyBegin, 0);
  EXPECT_EQ(r.tokens[static_cast<std::size_t>(regions[0].bodyBegin)].text,
            "{");
  EXPECT_GT(regions[0].bodyEnd, regions[0].bodyBegin);
}

TEST(PerfRules, AllocInHotFiresOnlyInHotBodies) {
  const auto hot = run(
      "src/pscd/a.cpp", "PSCD_HOT int f() { std::vector<int> v; return 0; }\n");
  ASSERT_EQ(hot.size(), 1u);
  EXPECT_EQ(hot[0].rule, "alloc-in-hot");
  const auto cold =
      run("src/pscd/a.cpp", "int f() { std::vector<int> v; return 0; }\n");
  EXPECT_TRUE(cold.empty());
}

TEST(PerfRules, GrowWithoutReserveWantsAReserveCall) {
  const auto fires = run("src/pscd/a.cpp",
                         "PSCD_HOT void f(std::vector<int>& out) {\n"
                         "  for (int i = 0; i < 9; ++i) out.push_back(i);\n"
                         "}\n");
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0].rule, "grow-without-reserve");
  const auto silent = run("src/pscd/a.cpp",
                          "PSCD_HOT void f(std::vector<int>& out) {\n"
                          "  out.reserve(9);\n"
                          "  for (int i = 0; i < 9; ++i) out.push_back(i);\n"
                          "}\n");
  EXPECT_TRUE(silent.empty());
}

TEST(PerfRules, MapBracketInsertFiresInsideLoopsOnly) {
  const auto fires = run(
      "src/pscd/a.cpp",
      "struct S {\n"
      "  std::unordered_map<int, int> counts_;\n"
      "  PSCD_HOT void f() {\n"
      "    for (int i = 0; i < 9; ++i) counts_[i] = 1;\n"
      "  }\n"
      "};\n");
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0].rule, "map-bracket-insert");
  const auto silent = run(
      "src/pscd/a.cpp",
      "struct S {\n"
      "  std::unordered_map<int, int> counts_;\n"
      "  PSCD_HOT void f() { counts_[0] = 1; }\n"
      "};\n");
  EXPECT_TRUE(silent.empty());
}

TEST(PerfRules, CopyParamFiresOnDeclarationsToo) {
  const auto fires =
      run("src/pscd/a.cpp", "PSCD_HOT int f(std::vector<int> xs);\n");
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0].rule, "copy-param");
  const auto silent = run(
      "src/pscd/a.cpp",
      "PSCD_HOT int f(const std::vector<int>& xs) { return 0; }\n");
  EXPECT_TRUE(silent.empty());
}

TEST(PerfRules, CopyInLoopWantsAReferenceBinding) {
  const auto fires = run("src/pscd/a.cpp",
                         "PSCD_HOT int f(const std::vector<long>& xs) {\n"
                         "  int n = 0;\n"
                         "  for (auto x : xs) n += 1;\n"
                         "  return n;\n"
                         "}\n");
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0].rule, "copy-in-loop");
  const auto silent = run("src/pscd/a.cpp",
                          "PSCD_HOT int f(const std::vector<long>& xs) {\n"
                          "  int n = 0;\n"
                          "  for (const auto& x : xs) n += 1;\n"
                          "  return n;\n"
                          "}\n");
  EXPECT_TRUE(silent.empty());
}

TEST(PerfRules, SharedPtrCopyFiresButMoveIsSilent) {
  const auto fires =
      run("src/pscd/a.cpp",
          "PSCD_HOT void f(const std::shared_ptr<int>& p) {\n"
          "  std::shared_ptr<int> q = p;\n"
          "}\n");
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0].rule, "shared-ptr-copy-in-hot");
  const auto silent =
      run("src/pscd/a.cpp",
          "PSCD_HOT void f(std::shared_ptr<int>&& p) {\n"
          "  std::shared_ptr<int> q = std::move(p);\n"
          "}\n");
  EXPECT_TRUE(silent.empty());
}

TEST(PerfRules, HotFindingsAreSuppressible) {
  const auto f = run(
      "src/pscd/a.cpp",
      "PSCD_HOT std::vector<int> f() {\n"
      "  std::vector<int> v;  // pscd-lint: allow(alloc-in-hot) escapes\n"
      "  return v;\n"
      "}\n");
  EXPECT_TRUE(f.empty());
}

TEST(Driver, GithubModeEmitsWorkflowAnnotations) {
  const std::string path =
      writeTemp("pscd_lint_gh.cpp", "std::mt19937 gen(1);\n");
  std::string output;
  EXPECT_EQ(runWith({"--github", path}, &output), 1);
  EXPECT_NE(output.find("::error file="), std::string::npos);
  // ':' in the title property is %-escaped per the workflow-command rules.
  EXPECT_NE(output.find("title=pscd-lint%3A random-source"),
            std::string::npos);
}

TEST(Driver, ExcludeSkipsPrefix) {
  namespace fs = std::filesystem;
  const std::string dir = testing::TempDir() + "pscd_lint_exclude_dir/";
  fs::create_directories(dir);
  std::ofstream(dir + "dirty.cpp") << "std::mt19937 gen(1);\n";
  std::string output;
  EXPECT_EQ(runWith({dir, "--exclude", dir + "dirty.cpp"}, &output), 0);
  EXPECT_NE(output.find("clean (0 files)"), std::string::npos);
}

}  // namespace
}  // namespace pscd_lint
