#include "rules.h"

#include <array>

namespace pscd_lint {
namespace {

using Tokens = std::vector<Token>;

bool isIdent(const Token& t, const char* s) {
  return t.kind == Token::Kind::kIdent && t.text == s;
}
bool isPunct(const Token& t, const char* s) {
  return t.kind == Token::Kind::kPunct && t.text == s;
}
bool startsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// tokens[i] must be "<"; returns the index one past the matching ">",
/// or -1 when unbalanced within the file. `>>` never appears as a
/// single token (the lexer splits it), so depth tracking is exact.
int skipTemplateArgs(const Tokens& toks, int i) {
  int depth = 0;
  const int n = static_cast<int>(toks.size());
  for (int j = i; j < n; ++j) {
    if (isPunct(toks[j], "<")) {
      ++depth;
    } else if (isPunct(toks[j], ">")) {
      if (--depth == 0) return j + 1;
    } else if (isPunct(toks[j], ";") || isPunct(toks[j], "{")) {
      return -1;  // ran off the declaration: it was a comparison
    }
  }
  return -1;
}

/// True when the template argument list starting at "<" (index i)
/// contains any of the given identifier tokens or a raw `*`.
bool templateArgsContain(const Tokens& toks, int i, int end,
                         const std::set<std::string>& idents,
                         bool matchStar) {
  for (int j = i; j < end; ++j) {
    if (matchStar && isPunct(toks[j], "*")) return true;
    if (toks[j].kind == Token::Kind::kIdent && idents.count(toks[j].text))
      return true;
  }
  return false;
}

void addFinding(std::vector<Finding>& out, const FileContext& ctx, int line,
                const std::string& rule, const std::string& message) {
  out.push_back(Finding{ctx.effectivePath, line, rule, message});
}

// ---------------------------------------------------------------------------
// Declaration harvesting
// ---------------------------------------------------------------------------

bool isFloatKeyword(const Token& t) {
  return isIdent(t, "double") || isIdent(t, "float");
}

}  // namespace

DeclInfo collectDecls(const Tokens& toks) {
  DeclInfo info;
  const int n = static_cast<int>(toks.size());
  static const std::set<std::string> kSmartPtr = {"unique_ptr", "shared_ptr"};
  for (int i = 0; i < n; ++i) {
    const Token& t = toks[i];
    if (t.kind != Token::Kind::kIdent) continue;
    // pscd::FlatMap (util/flat_map.h) iterates in hash order and
    // value-initializes on operator[], exactly like unordered_map.
    const bool isUnorderedType =
        t.text == "unordered_map" || t.text == "unordered_set" ||
        t.text == "unordered_multimap" || t.text == "unordered_multiset" ||
        t.text == "FlatMap";
    const bool isMapType = t.text == "unordered_map" ||
                           t.text == "unordered_multimap" ||
                           t.text == "map" || t.text == "multimap" ||
                           t.text == "FlatMap";
    if ((isUnorderedType || isMapType) && i + 1 < n &&
        isPunct(toks[i + 1], "<")) {
      int j = skipTemplateArgs(toks, i + 1);
      if (j < 0) continue;
      // Optional ::iterator / ::const_iterator, then cv/ref qualifiers.
      if (j + 1 < n && isPunct(toks[j], "::") &&
          (isIdent(toks[j + 1], "iterator") ||
           isIdent(toks[j + 1], "const_iterator"))) {
        j += 2;
      }
      while (j < n && (isPunct(toks[j], "&") || isPunct(toks[j], "*") ||
                       isIdent(toks[j], "const")))
        ++j;
      if (j < n && toks[j].kind == Token::Kind::kIdent) {
        if (isUnorderedType) info.unorderedNames.insert(toks[j].text);
        if (isMapType) info.mapNames.insert(toks[j].text);
      }
    } else if (t.text == "vector" && i + 1 < n && isPunct(toks[i + 1], "<")) {
      int j = skipTemplateArgs(toks, i + 1);
      if (j < 0) continue;
      if (!templateArgsContain(toks, i + 1, j, kSmartPtr, true)) continue;
      while (j < n && (isPunct(toks[j], "&") || isIdent(toks[j], "const")))
        ++j;
      if (j < n && toks[j].kind == Token::Kind::kIdent)
        info.ptrVectorNames.insert(toks[j].text);
    } else if (isFloatKeyword(t)) {
      // `double x` declares x — unless this is a template argument
      // (`vector<double>`), a cast `(double)` / `static_cast<double>`,
      // or a function return type `double f(`.
      if (i > 0 && (isPunct(toks[i - 1], "<") || isPunct(toks[i - 1], ","))) {
        // could still be a parameter: `f(double x, float y)` has `,`
        // before float — allow that case through when an identifier
        // follows directly.
        if (!(i + 1 < n && toks[i + 1].kind == Token::Kind::kIdent)) continue;
      }
      int j = i + 1;
      while (j < n && (isPunct(toks[j], "&") || isPunct(toks[j], "*") ||
                       isIdent(toks[j], "const")))
        ++j;
      if (j < n && toks[j].kind == Token::Kind::kIdent &&
          !(j + 1 < n && isPunct(toks[j + 1], "(")))
        info.floatNames.insert(toks[j].text);
    }
  }
  return info;
}

void mergeDecls(DeclInfo& into, const DeclInfo& from) {
  into.unorderedNames.insert(from.unorderedNames.begin(),
                             from.unorderedNames.end());
  into.ptrVectorNames.insert(from.ptrVectorNames.begin(),
                             from.ptrVectorNames.end());
  into.floatNames.insert(from.floatNames.begin(), from.floatNames.end());
  into.mapNames.insert(from.mapNames.begin(), from.mapNames.end());
}

// ---------------------------------------------------------------------------
// Hot-region harvesting (PSCD_HOT, see src/pscd/util/hot.h)
// ---------------------------------------------------------------------------

std::vector<HotRegion> collectHotRegions(const Tokens& toks) {
  std::vector<HotRegion> regions;
  const int n = static_cast<int>(toks.size());
  for (int i = 0; i < n; ++i) {
    if (!isIdent(toks[i], "PSCD_HOT")) continue;
    HotRegion r;
    r.line = toks[i].line;
    // The parameter list is the first '(' directly preceded by an
    // identifier (the function name — skips over the return type,
    // including templated ones, whose '<'...'>' contain no parens).
    int open = -1;
    for (int j = i + 1; j < n; ++j) {
      if (isPunct(toks[j], ";") || isPunct(toks[j], "{")) break;
      if (isPunct(toks[j], "(") && toks[j - 1].kind == Token::Kind::kIdent) {
        open = j;
        break;
      }
    }
    if (open < 0) continue;  // annotation on a non-function; ignore
    r.name = toks[open - 1].text;
    r.paramBegin = open;
    int depth = 0;
    for (int j = open; j < n; ++j) {
      if (isPunct(toks[j], "(")) {
        ++depth;
      } else if (isPunct(toks[j], ")")) {
        if (--depth == 0) {
          r.paramEnd = j;
          break;
        }
      }
    }
    if (r.paramEnd < 0) continue;
    // After the parameter list: cv-qualifiers, ref-qualifiers,
    // noexcept(...), override/final, trailing return types, and
    // paren-style member-initializer lists may all precede the body.
    // Skip balanced paren groups; the first top-level '{' opens the
    // body, a ';' means declaration-only (copy-param still applies).
    // Known limitation: a brace-init member initializer (`: f_{x}`)
    // would be mistaken for the body — this codebase initializes with
    // parens.
    int j = r.paramEnd + 1;
    while (j < n) {
      if (isPunct(toks[j], ";")) break;
      if (isPunct(toks[j], "{")) {
        r.bodyBegin = j;
        break;
      }
      if (isPunct(toks[j], "(")) {
        int d = 0;
        for (; j < n; ++j) {
          if (isPunct(toks[j], "(")) {
            ++d;
          } else if (isPunct(toks[j], ")")) {
            if (--d == 0) {
              ++j;
              break;
            }
          }
        }
        continue;
      }
      ++j;
    }
    if (r.bodyBegin >= 0) {
      int d = 0;
      for (int k = r.bodyBegin; k < n; ++k) {
        if (isPunct(toks[k], "{")) {
          ++d;
        } else if (isPunct(toks[k], "}")) {
          if (--d == 0) {
            r.bodyEnd = k;
            break;
          }
        }
      }
      if (r.bodyEnd < 0) continue;  // unbalanced braces: bail out
    }
    regions.push_back(std::move(r));
  }
  return regions;
}

namespace {

// ---------------------------------------------------------------------------
// Scope predicates
// ---------------------------------------------------------------------------

bool anywhere(const std::string&) { return true; }
bool inLibrary(const std::string& p) { return startsWith(p, "src/"); }
bool inCore(const std::string& p) { return startsWith(p, "src/pscd/"); }
bool notInTests(const std::string& p) { return !startsWith(p, "tests/"); }
// Self-lint: the linter holds itself to library policy too.
bool inLintTool(const std::string& p) {
  return startsWith(p, "tools/pscd_lint/");
}
bool inLibraryOrLintTool(const std::string& p) {
  return inLibrary(p) || inLintTool(p);
}
bool inCoreOrLintTool(const std::string& p) {
  return inCore(p) || inLintTool(p);
}

// ---------------------------------------------------------------------------
// determinism: wall-clock
// ---------------------------------------------------------------------------

void checkWallClock(const FileContext& ctx, std::vector<Finding>& out) {
  static const std::set<std::string> kBanned = {
      "system_clock",  "steady_clock", "high_resolution_clock",
      "gettimeofday",  "clock_gettime", "timespec_get",
      "localtime",     "gmtime",        "strftime",
      "mktime",        "ctime",         "difftime",
      "file_clock",    "utc_clock"};
  const Tokens& toks = *ctx.tokens;
  const int n = static_cast<int>(toks.size());
  for (int i = 0; i < n; ++i) {
    const Token& t = toks[i];
    if (t.kind != Token::Kind::kIdent) continue;
    if (kBanned.count(t.text)) {
      addFinding(out, ctx, t.line, "wall-clock",
                 "'" + t.text +
                     "' reads the wall clock; route timing through "
                     "pscd/util/wallclock.h or derive it from SimTime");
      continue;
    }
    // time( / clock( as free-function calls; member calls like
    // `r.time` or `metrics.clock(...)` on project types are fine.
    if ((t.text == "time" || t.text == "clock") && i + 1 < n &&
        isPunct(toks[i + 1], "(")) {
      if (i > 0 && (isPunct(toks[i - 1], ".") || isPunct(toks[i - 1], "->")))
        continue;
      addFinding(out, ctx, t.line, "wall-clock",
                 "'" + t.text +
                     "()' reads the wall clock; simulations must draw "
                     "time from the event loop, diagnostics from "
                     "pscd/util/wallclock.h");
    }
  }
}

// ---------------------------------------------------------------------------
// determinism: random-source
// ---------------------------------------------------------------------------

void checkRandomSource(const FileContext& ctx, std::vector<Finding>& out) {
  static const std::set<std::string> kBannedBare = {
      "random_device", "mt19937",        "mt19937_64",
      "minstd_rand",   "minstd_rand0",   "default_random_engine",
      "ranlux24",      "ranlux48",       "knuth_b",
      "random_shuffle"};
  static const std::set<std::string> kBannedCall = {
      "rand", "srand", "rand_r", "drand48", "lrand48", "random", "srandom"};
  const Tokens& toks = *ctx.tokens;
  const int n = static_cast<int>(toks.size());
  for (int i = 0; i < n; ++i) {
    const Token& t = toks[i];
    if (t.kind != Token::Kind::kIdent) continue;
    if (kBannedBare.count(t.text)) {
      addFinding(out, ctx, t.line, "random-source",
                 "'" + t.text +
                     "' is a non-reproducible / implementation-defined "
                     "random source; use pscd::Rng (util/rng.h)");
    } else if (kBannedCall.count(t.text) && i + 1 < n &&
               isPunct(toks[i + 1], "(") &&
               !(i > 0 && (isPunct(toks[i - 1], ".") ||
                           isPunct(toks[i - 1], "->")))) {
      addFinding(out, ctx, t.line, "random-source",
                 "'" + t.text +
                     "()' is seeded from global state; use pscd::Rng "
                     "with an explicit seed (util/rng.h)");
    }
  }
}

// ---------------------------------------------------------------------------
// determinism: unordered-iter
// ---------------------------------------------------------------------------

bool fileWritesOutput(const Tokens& toks) {
  static const std::set<std::string> kSinks = {
      "CsvWriter", "CsvSink",  "SimMetrics", "cout",   "cerr",  "clog",
      "printf",    "fprintf",  "ostream",    "ofstream", "Logger"};
  for (const Token& t : toks) {
    if (t.kind == Token::Kind::kIdent && kSinks.count(t.text)) return true;
    if (isPunct(t, "<<")) return true;
  }
  return false;
}

/// If the token range [begin, end) is a plain object path such as
/// `entries_`, `this->pages_` or `obj.map_`, returns the final
/// identifier; otherwise "".
std::string basePathIdent(const Tokens& toks, int begin, int end) {
  std::string last;
  for (int j = begin; j < end; ++j) {
    const Token& t = toks[j];
    if (t.kind == Token::Kind::kIdent) {
      last = t.text;
    } else if (isPunct(t, ".") || isPunct(t, "->")) {
      continue;
    } else {
      return "";  // calls, indexing, arithmetic: not a plain path
    }
  }
  return last;
}

void checkUnorderedIter(const FileContext& ctx, std::vector<Finding>& out) {
  const Tokens& toks = *ctx.tokens;
  if (!fileWritesOutput(toks)) return;
  const std::set<std::string>& names = ctx.decls->unorderedNames;
  if (names.empty()) return;
  const int n = static_cast<int>(toks.size());
  for (int i = 0; i < n; ++i) {
    // Range-for over an unordered container.
    if (isIdent(toks[i], "for") && i + 1 < n && isPunct(toks[i + 1], "(")) {
      int depth = 0;
      int colon = -1, close = -1;
      for (int j = i + 1; j < n; ++j) {
        if (isPunct(toks[j], "(")) {
          ++depth;
        } else if (isPunct(toks[j], ")")) {
          if (--depth == 0) {
            close = j;
            break;
          }
        } else if (depth == 1 && isPunct(toks[j], ":") && colon < 0) {
          colon = j;
        }
      }
      if (colon >= 0 && close >= 0) {
        const std::string base = basePathIdent(toks, colon + 1, close);
        if (!base.empty() && names.count(base)) {
          addFinding(out, ctx, toks[i].line, "unordered-iter",
                     "range-for over unordered container '" + base +
                         "' in output-writing code; iteration order is "
                         "implementation-defined — iterate sorted keys "
                         "or an ordered mirror index");
        }
      }
    }
    // Explicit iterator walk: name.begin( / name.cbegin(. A lone
    // .end() is not flagged — `find(k) != m.end()` never iterates.
    if (toks[i].kind == Token::Kind::kIdent && names.count(toks[i].text) &&
        i + 2 < n && isPunct(toks[i + 1], ".") &&
        (isIdent(toks[i + 2], "begin") || isIdent(toks[i + 2], "cbegin")) &&
        i + 3 < n && isPunct(toks[i + 3], "(")) {
      addFinding(out, ctx, toks[i].line, "unordered-iter",
                 "iterator walk over unordered container '" + toks[i].text +
                     "' in output-writing code; iteration order is "
                     "implementation-defined — iterate sorted keys or "
                     "an ordered mirror index");
    }
  }
}

// ---------------------------------------------------------------------------
// determinism: ptr-order
// ---------------------------------------------------------------------------

void checkPtrOrder(const FileContext& ctx, std::vector<Finding>& out) {
  const Tokens& toks = *ctx.tokens;
  const int n = static_cast<int>(toks.size());
  static const std::set<std::string> kNone;
  for (int i = 0; i < n; ++i) {
    const Token& t = toks[i];
    if (t.kind != Token::Kind::kIdent) continue;
    if ((t.text == "less" || t.text == "greater" || t.text == "hash") &&
        i + 1 < n && isPunct(toks[i + 1], "<")) {
      int j = skipTemplateArgs(toks, i + 1);
      if (j > 0 && templateArgsContain(toks, i + 1, j, kNone, true)) {
        addFinding(out, ctx, t.line, "ptr-order",
                   "std::" + t.text +
                       " over a pointer type orders/hashes by address, "
                       "which varies run to run; key on a stable id "
                       "instead");
      }
    }
    // Smart-pointer address comparison: `.get() <` / `.get() >=` ...
    if (t.text == "get" && i >= 1 && isPunct(toks[i - 1], ".") &&
        i + 3 < n && isPunct(toks[i + 1], "(") && isPunct(toks[i + 2], ")")) {
      const Token& after = toks[i + 3];
      if (isPunct(after, "<") || isPunct(after, ">") ||
          isPunct(after, "<=") || isPunct(after, ">=")) {
        addFinding(out, ctx, t.line, "ptr-order",
                   "relational comparison of smart-pointer addresses is "
                   "address-order nondeterminism; compare stable ids");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// determinism: ptr-sort
// ---------------------------------------------------------------------------

void checkPtrSort(const FileContext& ctx, std::vector<Finding>& out) {
  const Tokens& toks = *ctx.tokens;
  const std::set<std::string>& names = ctx.decls->ptrVectorNames;
  if (names.empty()) return;
  const int n = static_cast<int>(toks.size());
  for (int i = 0; i + 12 < n; ++i) {
    if (!(isIdent(toks[i], "sort") || isIdent(toks[i], "stable_sort")))
      continue;
    if (!isPunct(toks[i + 1], "(")) continue;
    // sort( X .begin() , X .end() )  — the two-argument, operator< form.
    int j = i + 2;
    if (toks[j].kind != Token::Kind::kIdent || !names.count(toks[j].text))
      continue;
    const std::string& name = toks[j].text;
    if (isPunct(toks[j + 1], ".") && isIdent(toks[j + 2], "begin") &&
        isPunct(toks[j + 3], "(") && isPunct(toks[j + 4], ")") &&
        isPunct(toks[j + 5], ",") && isIdent(toks[j + 6], name.c_str()) &&
        isPunct(toks[j + 7], ".") && isIdent(toks[j + 8], "end") &&
        isPunct(toks[j + 9], "(") && isPunct(toks[j + 10], ")") &&
        isPunct(toks[j + 11], ")")) {
      addFinding(out, ctx, toks[i].line, "ptr-sort",
                 "std::" + toks[i].text + " of pointer container '" + name +
                     "' without a comparator sorts by address; pass a "
                     "named comparator over stable fields");
    }
  }
}

// ---------------------------------------------------------------------------
// correctness: bare-assert
// ---------------------------------------------------------------------------

void checkBareAssert(const FileContext& ctx, std::vector<Finding>& out) {
  const Tokens& toks = *ctx.tokens;
  const int n = static_cast<int>(toks.size());
  for (int i = 0; i + 1 < n; ++i) {
    if (isIdent(toks[i], "assert") && isPunct(toks[i + 1], "(")) {
      addFinding(out, ctx, toks[i].line, "bare-assert",
                 "assert() aborts and compiles out under NDEBUG; use "
                 "PSCD_CHECK / PSCD_DCHECK (util/check.h)");
    }
  }
}

// ---------------------------------------------------------------------------
// correctness: throw-site
// ---------------------------------------------------------------------------

void checkThrowSite(const FileContext& ctx, std::vector<Finding>& out) {
  if (ctx.effectivePath == "src/pscd/util/check.h") return;
  const Tokens& toks = *ctx.tokens;
  const int n = static_cast<int>(toks.size());
  for (int i = 0; i < n; ++i) {
    if (!isIdent(toks[i], "throw")) continue;
    // `noexcept` or exception-spec contexts: `throw (`? Legacy dynamic
    // exception specifications do not appear in this codebase; treat
    // `throw` followed by `;` as a bare rethrow (allowed).
    if (i + 1 < n && isPunct(toks[i + 1], ";")) continue;
    // Sanctioned: direct construction of a std:: exception type — the
    // API-contract idiom kept by PR 1 (tests EXPECT_THROW on the exact
    // std type). Everything else routes through PSCD_CHECK.
    if (i + 4 < n && isIdent(toks[i + 1], "std") &&
        isPunct(toks[i + 2], "::") &&
        toks[i + 3].kind == Token::Kind::kIdent &&
        isPunct(toks[i + 4], "(")) {
      continue;
    }
    addFinding(out, ctx, toks[i].line, "throw-site",
               "throw of a non-std type or value; use PSCD_CHECK "
               "(util/check.h) for invariants or construct a typed "
               "std:: exception for API contracts");
  }
}

// ---------------------------------------------------------------------------
// correctness: float-compare
// ---------------------------------------------------------------------------

bool isFloatLiteral(const Token& t) {
  if (t.kind != Token::Kind::kNumber) return false;
  const std::string& s = t.text;
  if (startsWith(s, "0x") || startsWith(s, "0X")) return false;
  for (char c : s) {
    if (c == '.' || c == 'e' || c == 'E' || c == 'f' || c == 'F') return true;
  }
  return false;
}

void checkFloatCompare(const FileContext& ctx, std::vector<Finding>& out) {
  const Tokens& toks = *ctx.tokens;
  const int n = static_cast<int>(toks.size());
  const std::set<std::string>& floats = ctx.decls->floatNames;
  for (int i = 1; i + 1 < n; ++i) {
    if (!(isPunct(toks[i], "==") || isPunct(toks[i], "!="))) continue;
    const Token& lhs = toks[i - 1];
    const Token& rhs = toks[i + 1];
    bool floaty = isFloatLiteral(lhs) || isFloatLiteral(rhs);
    if (!floaty && lhs.kind == Token::Kind::kIdent && floats.count(lhs.text))
      floaty = true;
    if (!floaty && rhs.kind == Token::Kind::kIdent && floats.count(rhs.text))
      floaty = true;
    // `x == std::numeric_limits<double>::infinity()` and friends.
    if (!floaty && isIdent(rhs, "std") && i + 6 < n &&
        isIdent(toks[i + 3], "numeric_limits") &&
        (isIdent(toks[i + 5], "double") || isIdent(toks[i + 5], "float")))
      floaty = true;
    // `...infinity() == x` — look back across the call parens.
    if (!floaty && isPunct(lhs, ")") && i >= 3 && isPunct(toks[i - 2], "(") &&
        (isIdent(toks[i - 3], "infinity") || isIdent(toks[i - 3], "epsilon") ||
         isIdent(toks[i - 3], "quiet_NaN")))
      floaty = true;
    if (floaty) {
      addFinding(out, ctx, toks[i].line, "float-compare",
                 "exact == / != on floating-point values; compare against "
                 "an epsilon, or suppress if an exact sentinel is intended");
    }
  }
}

// ---------------------------------------------------------------------------
// correctness: naked-new
// ---------------------------------------------------------------------------

void checkNakedNew(const FileContext& ctx, std::vector<Finding>& out) {
  const Tokens& toks = *ctx.tokens;
  const int n = static_cast<int>(toks.size());
  for (int i = 0; i < n; ++i) {
    if (isIdent(toks[i], "new")) {
      addFinding(out, ctx, toks[i].line, "naked-new",
                 "naked new in library code; use std::make_unique / "
                 "std::make_shared or a container");
    } else if (isIdent(toks[i], "delete")) {
      // `= delete` (deleted special member) is not a deallocation.
      if (i > 0 && isPunct(toks[i - 1], "=")) continue;
      addFinding(out, ctx, toks[i].line, "naked-new",
                 "naked delete in library code; owning raw pointers are "
                 "banned — use std::unique_ptr");
    }
  }
}

// ---------------------------------------------------------------------------
// correctness: env-access
// ---------------------------------------------------------------------------

void checkEnvAccess(const FileContext& ctx, std::vector<Finding>& out) {
  static const std::set<std::string> kBanned = {
      "getenv", "secure_getenv", "setenv", "putenv", "unsetenv"};
  for (const Token& t : *ctx.tokens) {
    if (t.kind == Token::Kind::kIdent && kBanned.count(t.text)) {
      addFinding(out, ctx, t.line, "env-access",
                 "'" + t.text +
                     "' makes behavior depend on ambient environment; "
                     "pass the value as an explicit flag");
    }
  }
}

// ---------------------------------------------------------------------------
// performance: hot-region rule pack (PSCD_HOT scopes)
// ---------------------------------------------------------------------------

/// Token-index ranges (inclusive) of loop bodies — `for`/`while`/`do`
/// statements, braced or single-statement — within [from, to]. Nested
/// loops each contribute their own (overlapping) range.
std::vector<std::pair<int, int>> collectLoopBodies(const Tokens& toks,
                                                   int from, int to) {
  std::vector<std::pair<int, int>> out;
  for (int i = from; i <= to; ++i) {
    int bodyStart = -1;
    if ((isIdent(toks[i], "for") || isIdent(toks[i], "while")) &&
        i + 1 <= to && isPunct(toks[i + 1], "(")) {
      int depth = 0, close = -1;
      for (int j = i + 1; j <= to; ++j) {
        if (isPunct(toks[j], "(")) {
          ++depth;
        } else if (isPunct(toks[j], ")")) {
          if (--depth == 0) {
            close = j;
            break;
          }
        }
      }
      if (close < 0) continue;
      bodyStart = close + 1;
      // `do { ... } while (cond);` — the trailing while owns no body.
      if (bodyStart > to || isPunct(toks[bodyStart], ";")) continue;
    } else if (isIdent(toks[i], "do")) {
      bodyStart = i + 1;
    } else {
      continue;
    }
    if (bodyStart > to) continue;
    if (isPunct(toks[bodyStart], "{")) {
      int d = 0;
      for (int k = bodyStart; k <= to; ++k) {
        if (isPunct(toks[k], "{")) {
          ++d;
        } else if (isPunct(toks[k], "}")) {
          if (--d == 0) {
            out.emplace_back(bodyStart, k);
            break;
          }
        }
      }
    } else {
      // Single-statement body: up to the ';' at paren depth 0.
      int d = 0;
      for (int k = bodyStart; k <= to; ++k) {
        if (isPunct(toks[k], "(")) {
          ++d;
        } else if (isPunct(toks[k], ")")) {
          --d;
        } else if (d == 0 && isPunct(toks[k], ";")) {
          out.emplace_back(bodyStart, k);
          break;
        }
      }
    }
  }
  return out;
}

bool memberCallBefore(const Tokens& toks, int i) {
  return i > 0 && (isPunct(toks[i - 1], ".") || isPunct(toks[i - 1], "->"));
}

void checkAllocInHot(const FileContext& ctx, std::vector<Finding>& out) {
  static const std::set<std::string> kContainers = {
      "vector", "string",        "unordered_map", "unordered_set",
      "map",    "set",           "deque",         "list",
      "function", "stringstream", "ostringstream"};
  const Tokens& toks = *ctx.tokens;
  for (const HotRegion& r : *ctx.hotRegions) {
    if (r.bodyBegin < 0) continue;
    for (int i = r.bodyBegin + 1; i < r.bodyEnd; ++i) {
      const Token& t = toks[i];
      if (t.kind != Token::Kind::kIdent) continue;
      if (t.text == "new") {
        addFinding(out, ctx, t.line, "alloc-in-hot",
                   "'new' inside PSCD_HOT '" + r.name +
                       "'; hoist the allocation out of the hot path or "
                       "reuse a scratch buffer");
        continue;
      }
      if (t.text == "make_unique" || t.text == "make_shared") {
        addFinding(out, ctx, t.line, "alloc-in-hot",
                   "'" + t.text + "' allocates inside PSCD_HOT '" + r.name +
                       "'; hoist the allocation out of the hot path");
        continue;
      }
      if (!kContainers.count(t.text)) continue;
      // A local declaration or temporary construction of an allocating
      // type: `std::vector<T> v`, `std::string(...)`, `std::function<...>
      // f = lambda`. References, pointers, and nested template args are
      // not constructions and stay silent.
      int j = i + 1;
      if (j < r.bodyEnd && isPunct(toks[j], "<")) {
        j = skipTemplateArgs(toks, j);
        if (j < 0 || j >= r.bodyEnd) continue;
      }
      if (isPunct(toks[j], "&") || isPunct(toks[j], "*") ||
          isPunct(toks[j], "::"))
        continue;
      if (toks[j].kind == Token::Kind::kIdent && !isIdent(toks[j], "const")) {
        addFinding(out, ctx, t.line, "alloc-in-hot",
                   "local '" + t.text + "' constructed inside PSCD_HOT '" +
                       r.name +
                       "'; hoist to a reused scratch member or take it "
                       "from the caller");
      } else if (isPunct(toks[j], "(") || isPunct(toks[j], "{")) {
        addFinding(out, ctx, t.line, "alloc-in-hot",
                   "temporary '" + t.text + "' constructed inside PSCD_HOT '" +
                       r.name + "'; build it once outside the hot path");
      }
    }
  }
}

void checkGrowWithoutReserve(const FileContext& ctx,
                             std::vector<Finding>& out) {
  const Tokens& toks = *ctx.tokens;
  for (const HotRegion& r : *ctx.hotRegions) {
    if (r.bodyBegin < 0) continue;
    // Containers that see a .reserve( anywhere in this function.
    std::set<std::string> reserved;
    for (int i = r.bodyBegin + 1; i < r.bodyEnd; ++i) {
      if (isIdent(toks[i], "reserve") && memberCallBefore(toks, i) &&
          i + 1 < r.bodyEnd && isPunct(toks[i + 1], "(") && i >= 2 &&
          toks[i - 2].kind == Token::Kind::kIdent) {
        reserved.insert(toks[i - 2].text);
      }
    }
    for (const auto& [lb, le] : collectLoopBodies(toks, r.bodyBegin + 1,
                                                  r.bodyEnd - 1)) {
      for (int i = lb; i <= le; ++i) {
        if (!(isIdent(toks[i], "push_back") || isIdent(toks[i], "emplace_back")))
          continue;
        if (!memberCallBefore(toks, i)) continue;
        if (!(i + 1 <= le && isPunct(toks[i + 1], "("))) continue;
        if (i < 2 || toks[i - 2].kind != Token::Kind::kIdent) continue;
        const std::string& base = toks[i - 2].text;
        if (reserved.count(base)) continue;
        addFinding(out, ctx, toks[i].line, "grow-without-reserve",
                   "'" + base + "." + toks[i].text +
                       "' grows in a loop inside PSCD_HOT '" + r.name +
                       "' with no reserve() in this function; reserve the "
                       "expected size before the loop");
      }
    }
  }
}

void checkMapBracketInsert(const FileContext& ctx, std::vector<Finding>& out) {
  const Tokens& toks = *ctx.tokens;
  const std::set<std::string>& maps = ctx.decls->mapNames;
  if (maps.empty()) return;
  for (const HotRegion& r : *ctx.hotRegions) {
    if (r.bodyBegin < 0) continue;
    for (const auto& [lb, le] : collectLoopBodies(toks, r.bodyBegin + 1,
                                                  r.bodyEnd - 1)) {
      for (int i = lb; i + 1 <= le; ++i) {
        if (toks[i].kind != Token::Kind::kIdent || !maps.count(toks[i].text))
          continue;
        if (!isPunct(toks[i + 1], "[")) continue;
        addFinding(out, ctx, toks[i].line, "map-bracket-insert",
                   "map operator[] on '" + toks[i].text +
                       "' in a loop inside PSCD_HOT '" + r.name +
                       "'; operator[] default-constructs on miss — use "
                       "find()/try_emplace() and reuse the iterator");
      }
    }
  }
}

void checkCopyParam(const FileContext& ctx, std::vector<Finding>& out) {
  static const std::set<std::string> kHeavy = {
      "string", "vector", "shared_ptr", "function", "map",
      "unordered_map", "set", "unordered_set", "deque"};
  const Tokens& toks = *ctx.tokens;
  for (const HotRegion& r : *ctx.hotRegions) {
    if (r.paramBegin < 0 || r.paramEnd <= r.paramBegin) continue;
    for (int i = r.paramBegin + 1; i < r.paramEnd; ++i) {
      const Token& t = toks[i];
      if (t.kind != Token::Kind::kIdent || !kHeavy.count(t.text)) continue;
      int j = i + 1;
      if (j < r.paramEnd && isPunct(toks[j], "<")) {
        j = skipTemplateArgs(toks, j);
        if (j < 0 || j > r.paramEnd) continue;
      }
      // By value iff the parameter name follows directly; '&' and '*'
      // are pass-by-reference/pointer, anything else (a '>' closing an
      // enclosing template argument list, ',', ')') is not a parameter
      // of this type.
      if (j < r.paramEnd && toks[j].kind == Token::Kind::kIdent &&
          !isIdent(toks[j], "const")) {
        addFinding(out, ctx, t.line, "copy-param",
                   "by-value '" + t.text + "' parameter '" + toks[j].text +
                       "' on PSCD_HOT '" + r.name +
                       "'; pass by const reference (or std::move a sink "
                       "argument and suppress with justification)");
      }
    }
  }
}

void checkCopyInLoop(const FileContext& ctx, std::vector<Finding>& out) {
  const Tokens& toks = *ctx.tokens;
  for (const HotRegion& r : *ctx.hotRegions) {
    if (r.bodyBegin < 0) continue;
    for (int i = r.bodyBegin + 1; i < r.bodyEnd; ++i) {
      if (!isIdent(toks[i], "for") || !isPunct(toks[i + 1], "(")) continue;
      int depth = 0, colon = -1, close = -1;
      for (int j = i + 1; j < r.bodyEnd; ++j) {
        if (isPunct(toks[j], "(")) {
          ++depth;
        } else if (isPunct(toks[j], ")")) {
          if (--depth == 0) {
            close = j;
            break;
          }
        } else if (depth == 1 && isPunct(toks[j], ":") && colon < 0) {
          colon = j;
        }
      }
      if (colon < 0 || close < 0) continue;  // classic for, not range-for
      bool hasAuto = false, byRefOrPtr = false;
      for (int j = i + 2; j < colon; ++j) {
        if (isIdent(toks[j], "auto")) hasAuto = true;
        if (isPunct(toks[j], "&") || isPunct(toks[j], "*")) byRefOrPtr = true;
      }
      if (hasAuto && !byRefOrPtr) {
        addFinding(out, ctx, toks[i].line, "copy-in-loop",
                   "range-for binds each element by value inside PSCD_HOT '" +
                       r.name +
                       "'; bind `const auto&` (or `auto&` to mutate)");
      }
    }
  }
}

void checkSharedPtrCopyInHot(const FileContext& ctx,
                             std::vector<Finding>& out) {
  const Tokens& toks = *ctx.tokens;
  for (const HotRegion& r : *ctx.hotRegions) {
    if (r.bodyBegin < 0) continue;
    for (int i = r.bodyBegin + 1; i < r.bodyEnd; ++i) {
      if (!isIdent(toks[i], "shared_ptr")) continue;
      if (!(i + 1 < r.bodyEnd && isPunct(toks[i + 1], "<"))) continue;
      int j = skipTemplateArgs(toks, i + 1);
      if (j < 0 || j >= r.bodyEnd) continue;
      if (toks[j].kind != Token::Kind::kIdent || isIdent(toks[j], "const"))
        continue;
      // `shared_ptr<T> name = rhs` / `shared_ptr<T> name(rhs)`. A
      // default-constructed local or a move/make_shared initializer
      // does not bump the refcount, so those stay silent.
      int k = j + 1;
      if (k >= r.bodyEnd) continue;
      if (isPunct(toks[k], ";")) continue;  // default construction
      if (isPunct(toks[k], "=") || isPunct(toks[k], "(") ||
          isPunct(toks[k], "{")) {
        int v = k + 1;
        if (v < r.bodyEnd && isIdent(toks[v], "std") &&
            v + 2 < r.bodyEnd && isPunct(toks[v + 1], "::"))
          v += 2;
        if (v < r.bodyEnd && (isIdent(toks[v], "move") ||
                              isIdent(toks[v], "make_shared")))
          continue;
        addFinding(out, ctx, toks[i].line, "shared-ptr-copy-in-hot",
                   "shared_ptr copy into '" + toks[j].text +
                       "' inside PSCD_HOT '" + r.name +
                       "'; refcount bumps are atomic RMWs — take a raw "
                       "pointer/reference or std::move the pointer");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Architecture rules (whole-repo)
// ---------------------------------------------------------------------------

// The architecture rules' findings come from the include/symbol graph
// pass in lint.cpp — they need every scanned file at once, so the
// per-file hook is a no-op. They are registered here anyway so the
// registry owns their names, groups, summaries, and fix hints (and so
// allow()/expect() directives naming them validate).
void checkWholeRepo(const FileContext&, std::vector<Finding>&) {}

}  // namespace

const std::vector<Rule>& ruleRegistry() {
  static const std::vector<Rule> kRules = {
      {"wall-clock", "determinism",
       "wall-clock reads (chrono clocks, time(), gettimeofday, ...) outside "
       "the util/wallclock.h shim",
       "derive simulation time from SimTime; for diagnostics include "
       "pscd/util/wallclock.h and call pscd::monotonicSeconds()",
       [](const std::string& p) { return p != "src/pscd/util/wallclock.h"; },
       checkWallClock},
      {"random-source", "determinism",
       "rand()/srand(), std::random_device, and <random> engines instead of "
       "the seeded pscd::Rng",
       "construct pscd::Rng with an explicit seed (derive per-component "
       "streams via split() or cellSeed())",
       anywhere, checkRandomSource},
      {"unordered-iter", "determinism",
       "iteration over std::unordered_map/set or pscd::FlatMap in src/pscd/ "
       "code that writes to streams, CSV sinks, or metrics",
       "collect keys and sort them, keep an ordered mirror index, or prove "
       "the fold is commutative and suppress with a justification",
       inCoreOrLintTool, checkUnorderedIter},
      {"ptr-order", "determinism",
       "ordering or hashing by pointer value (std::less/hash over T*, "
       "smart-pointer .get() comparisons)",
       "key on a stable id owned by the object, never its address",
       anywhere, checkPtrOrder},
      {"ptr-sort", "determinism",
       "std::sort/stable_sort of a pointer container without a comparator",
       "pass a named comparator over stable fields of the pointees",
       anywhere, checkPtrSort},
      {"bare-assert", "correctness",
       "assert() instead of PSCD_CHECK / PSCD_DCHECK",
       "use PSCD_CHECK (always on, catchable) or PSCD_DCHECK (debug), "
       "from pscd/util/check.h",
       anywhere, checkBareAssert},
      {"throw-site", "correctness",
       "throw of anything but a typed std:: exception outside util/check.h",
       "invariants: PSCD_CHECK; API contracts: throw a std:: exception "
       "type tests can EXPECT_THROW on",
       anywhere, checkThrowSite},
      {"float-compare", "correctness",
       "exact ==/!= on floating-point values outside tests/",
       "compare |a-b| against an epsilon; exact sentinel compares take an "
       "allow(float-compare) with justification",
       notInTests, checkFloatCompare},
      {"naked-new", "correctness",
       "naked new/delete in library code (src/, tools/pscd_lint/)",
       "use std::make_unique/std::make_shared or standard containers",
       inLibraryOrLintTool, checkNakedNew},
      {"env-access", "correctness",
       "environment access (getenv & friends)",
       "pass the value as an explicit flag", anywhere, checkEnvAccess},
      {"alloc-in-hot", "performance",
       "allocation inside a PSCD_HOT body (new, make_unique/make_shared, "
       "container/string/function construction)",
       "hoist the allocation to a reused scratch buffer, a member set up "
       "once, or the caller; a result that must escape takes an "
       "allow(alloc-in-hot) with justification",
       anywhere, checkAllocInHot},
      {"grow-without-reserve", "performance",
       "push_back/emplace_back in a loop inside a PSCD_HOT body with no "
       "reserve() on that container in the same function",
       "call container.reserve(expected) before the loop; when the size "
       "is unknowable, suppress with the reason",
       anywhere, checkGrowWithoutReserve},
      {"map-bracket-insert", "performance",
       "map/unordered_map/FlatMap operator[] in a loop inside a PSCD_HOT "
       "body",
       "operator[] default-constructs the mapped value on every miss; "
       "use find()/try_emplace() once and reuse the iterator",
       anywhere, checkMapBracketInsert},
      {"copy-param", "performance",
       "by-value string/vector/shared_ptr/function/map parameter on a "
       "PSCD_HOT function",
       "pass heavy parameters by const reference; an intentional sink "
       "parameter (stored via std::move) takes an allow(copy-param)",
       anywhere, checkCopyParam},
      {"copy-in-loop", "performance",
       "range-for that binds elements by value inside a PSCD_HOT body",
       "bind `const auto&` (read) or `auto&` (mutate); copy on purpose "
       "only with an allow(copy-in-loop) and the reason",
       anywhere, checkCopyInLoop},
      {"shared-ptr-copy-in-hot", "performance",
       "shared_ptr copied (refcount bumped) inside a PSCD_HOT body",
       "take T* or T& for non-owning access inside the hot path; "
       "transfer ownership with std::move",
       anywhere, checkSharedPtrCopyInHot},
      {"layer-violation", "architecture",
       "an #include crossing layers along an edge the layering manifest "
       "(tools/pscd_lint/layers.txt) does not allow, or a --forbid-reach "
       "layer transitively reaching a forbidden one",
       "depend downward only: move the shared type into the lower layer, "
       "take a narrow interface (core/runtime.h Clock/EventSink) instead "
       "of the concrete upper type, or add the edge to layers.txt under "
       "review; an intentional back-edge takes allow(layer-violation) "
       "with the rationale",
       anywhere, checkWholeRepo},
      {"include-cycle", "architecture",
       "a strongly connected component in the #include graph (reported "
       "once per cycle with a minimal witness path)",
       "break the cycle: forward-declare instead of including, split the "
       "shared piece into its own header, or invert the dependency",
       anywhere, checkWholeRepo},
      {"unused-include", "architecture",
       "a directly included project header none of whose declared "
       "symbols appear in this file (headers that #define macros are "
       "exempt — macro use is invisible to the token stream)",
       "drop the include (or include what you use where the symbol "
       "really comes from); an include kept for re-export takes "
       "allow(unused-include) with the rationale",
       anywhere, checkWholeRepo},
      {"self-include-first", "architecture",
       "a .cpp whose sibling header exists but is not its first #include "
       "(first-include position proves the header is self-sufficient)",
       "move the own-header #include above every other include",
       anywhere, checkWholeRepo},
  };
  return kRules;
}

bool isKnownRule(const std::string& name) {
  for (const Rule& r : ruleRegistry()) {
    if (r.name == name) return true;
  }
  return name == "lint-directive";
}

}  // namespace pscd_lint
