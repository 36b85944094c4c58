// Rule registry for pscd_lint.
//
// Every rule is a token-stream matcher over one file (plus declaration
// info merged from the sibling header, so `entries_` declared in
// value_cache.h is known while linting value_cache.cpp). Rules carry a
// path scope: determinism rules about container iteration only apply
// inside src/pscd/, the float-compare rule exempts tests/, and a small
// number of files are sanctioned homes for otherwise-banned constructs
// (util/wallclock.h for clocks, util/check.h for throw); environment
// access has no such home.
#pragma once

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "lexer.h"

namespace pscd_lint {

struct Finding {
  std::string path;
  int line = 0;
  std::string rule;
  std::string message;

  bool operator<(const Finding& o) const {
    if (path != o.path) return path < o.path;
    if (line != o.line) return line < o.line;
    if (rule != o.rule) return rule < o.rule;
    return message < o.message;
  }
};

/// Identifiers whose declared type matters to a rule, harvested in a
/// pre-pass over the file and its sibling header.
struct DeclInfo {
  std::set<std::string> unorderedNames;  // std::unordered_{map,set} vars
  std::set<std::string> ptrVectorNames;  // std::vector<T*> / vector<unique_ptr>
  std::set<std::string> floatNames;      // double / float vars & members
  std::set<std::string> mapNames;        // std::map / std::unordered_map vars
};

DeclInfo collectDecls(const std::vector<Token>& tokens);
void mergeDecls(DeclInfo& into, const DeclInfo& from);

/// One `PSCD_HOT`-annotated function, harvested from the token stream
/// with brace-depth tracking (util/hot.h documents the annotation).
/// Token indexes are into the lexed file; -1 marks an absent part
/// (a declaration without a body has bodyBegin = bodyEnd = -1).
struct HotRegion {
  std::string name;    // identifier before the parameter list
  int line = 0;        // line of the PSCD_HOT token
  int paramBegin = -1;  // index of the '(' opening the parameter list
  int paramEnd = -1;    // index of the matching ')'
  int bodyBegin = -1;   // index of the '{' opening the body
  int bodyEnd = -1;     // index of the matching '}'
};

/// Scans the token stream for PSCD_HOT annotations and resolves each to
/// its function's parameter list and (brace-matched) body.
std::vector<HotRegion> collectHotRegions(const std::vector<Token>& tokens);

struct FileContext {
  std::string effectivePath;  // after any as-path directive
  const std::vector<Token>* tokens = nullptr;
  const DeclInfo* decls = nullptr;
  const std::vector<HotRegion>* hotRegions = nullptr;
};

struct Rule {
  std::string name;
  std::string group;    // "determinism", "correctness", or "performance"
  std::string summary;  // one line, shown by --list-rules
  std::string hint;     // remediation, shown by --fix-hints
  std::function<bool(const std::string& path)> inScope;
  std::function<void(const FileContext&, std::vector<Finding>&)> check;
};

/// The registered rules, in stable (registration) order.
const std::vector<Rule>& ruleRegistry();

/// True when `name` names a registered rule (used to validate allow()
/// and expect() directives).
bool isKnownRule(const std::string& name);

}  // namespace pscd_lint
