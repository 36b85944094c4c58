// Minimal command-line parser for the tools and examples: long options
// only ("--name value" / "--name=value"), boolean flags, typed getters
// with defaults, and generated --help text.
#pragma once

#include <concepts>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pscd {

std::int64_t parseIntInRange(std::string_view name, std::string_view raw,
                             std::int64_t lo, std::uint64_t hi);

/// Reads `raw`, the value given for option --name, as an integer that
/// fits T, the type of the field it feeds, so it never wraps on the way
/// in: std::invalid_argument when it is not an integer, std::out_of_range
/// when it does not fit. Both messages name the option.
template <std::integral T>
T parseIntOption(std::string_view name, std::string_view raw) {
  return static_cast<T>(parseIntInRange(name, raw,
                                        std::numeric_limits<T>::min(),
                                        std::numeric_limits<T>::max()));
}

class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  /// Declares a boolean flag ("--verbose").
  void addFlag(std::string name, std::string description);

  /// Declares a value option with a default shown in --help.
  void addOption(std::string name, std::string description,
                 std::string defaultValue);

  /// Parses argv. Returns false when parsing fails or --help was given;
  /// error() distinguishes the two (empty for --help).
  bool parse(int argc, const char* const* argv);

  bool flag(std::string_view name) const;
  const std::string& option(std::string_view name) const;
  double optionDouble(std::string_view name) const;
  /// The option's value as an integer that fits T (parseIntOption).
  template <std::integral T = std::int64_t>
  T optionInt(std::string_view name) const {
    return parseIntOption<T>(name, option(name));
  }

  const std::string& error() const { return error_; }
  std::string help() const;

 private:
  struct Spec {
    std::string description;
    bool isFlag = false;
    std::string defaultValue;
  };
  const Spec& specFor(std::string_view name) const;

  std::string program_;
  std::string description_;
  std::map<std::string, Spec, std::less<>> specs_;
  std::map<std::string, std::string, std::less<>> values_;
  std::map<std::string, bool, std::less<>> flags_;
  std::string error_;
};

}  // namespace pscd
