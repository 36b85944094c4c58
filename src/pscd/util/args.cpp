#include "pscd/util/args.h"

#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace pscd {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void ArgParser::addFlag(std::string name, std::string description) {
  Spec spec;
  spec.description = std::move(description);
  spec.isFlag = true;
  specs_.emplace(std::move(name), std::move(spec));
}

void ArgParser::addOption(std::string name, std::string description,
                          std::string defaultValue) {
  Spec spec;
  spec.description = std::move(description);
  spec.defaultValue = std::move(defaultValue);
  specs_.emplace(std::move(name), std::move(spec));
}

const ArgParser::Spec& ArgParser::specFor(std::string_view name) const {
  const auto it = specs_.find(name);
  if (it == specs_.end()) {
    throw std::logic_error("ArgParser: undeclared argument " +
                           std::string(name));
  }
  return it->second;
}

bool ArgParser::parse(int argc, const char* const* argv) {
  error_.clear();
  values_.clear();
  flags_.clear();
  for (int i = 1; i < argc; ++i) {
    if (argv[i] == nullptr) {
      error_ = "null argument in argv";
      return false;
    }
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") return false;
    if (!arg.starts_with("--")) {
      error_ = "unexpected positional argument: " + std::string(arg);
      return false;
    }
    arg.remove_prefix(2);
    std::optional<std::string> inlineValue;
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      inlineValue = std::string(arg.substr(eq + 1));
      arg = arg.substr(0, eq);
    }
    if (arg.empty()) {
      error_ = "missing option name after --";
      return false;
    }
    const auto it = specs_.find(arg);
    if (it == specs_.end()) {
      error_ = "unknown option --" + std::string(arg);
      return false;
    }
    if (it->second.isFlag) {
      if (inlineValue) {
        error_ = "flag --" + std::string(arg) + " takes no value";
        return false;
      }
      flags_[std::string(arg)] = true;
    } else {
      if (!inlineValue) {
        if (++i >= argc) {
          error_ = "missing value for --" + std::string(arg);
          return false;
        }
        inlineValue = argv[i];
      }
      values_[std::string(arg)] = *inlineValue;
    }
  }
  return true;
}

bool ArgParser::flag(std::string_view name) const {
  const Spec& spec = specFor(name);
  if (!spec.isFlag) throw std::logic_error("ArgParser: not a flag");
  const auto it = flags_.find(name);
  return it != flags_.end() && it->second;
}

const std::string& ArgParser::option(std::string_view name) const {
  const Spec& spec = specFor(name);
  if (spec.isFlag) throw std::logic_error("ArgParser: not an option");
  const auto it = values_.find(name);
  return it != values_.end() ? it->second : spec.defaultValue;
}

double ArgParser::optionDouble(std::string_view name) const {
  const std::string& raw = option(name);
  try {
    std::size_t used = 0;
    const double v = std::stod(raw, &used);
    if (used != raw.size() || !std::isfinite(v)) {
      throw std::invalid_argument(raw);
    }
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("option --" + std::string(name) +
                                ": not a finite number: " + raw);
  }
}

std::int64_t parseIntInRange(std::string_view name, std::string_view raw,
                             std::int64_t lo, std::uint64_t hi) {
  std::int64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(raw.data(), raw.data() + raw.size(), v);
  if (ec != std::errc() || ptr != raw.data() + raw.size()) {
    throw std::invalid_argument("option --" + std::string(name) +
                                ": not an integer: " + std::string(raw));
  }
  if (v < lo || std::cmp_greater(v, hi)) {
    throw std::out_of_range("option --" + std::string(name) + ": " +
                            std::string(raw) + " is outside [" +
                            std::to_string(lo) + ", " + std::to_string(hi) +
                            "]");
  }
  return v;
}

std::string ArgParser::help() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\noptions:\n";
  for (const auto& [name, spec] : specs_) {
    os << "  --" << name;
    if (!spec.isFlag) os << " <value>";
    os << "\n      " << spec.description;
    if (!spec.isFlag && !spec.defaultValue.empty()) {
      os << " (default: " << spec.defaultValue << ")";
    }
    os << "\n";
  }
  os << "  --help\n      print this message\n";
  return os.str();
}

}  // namespace pscd
