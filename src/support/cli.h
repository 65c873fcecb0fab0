// Minimal command-line flag parsing for the bench and example binaries.
//
// Supports `--name=value`, `--name value`, and boolean `--name` /
// `--no-name`. parse_or_exit() reports unknown flags rather than ignoring
// them, so invocations stay honest.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "support/status.h"

namespace prose {

class CliFlags {
 public:
  /// Parses argv (excluding argv[0]); positional arguments are collected in
  /// order. Flags may be declared implicitly by first use of a getter.
  static StatusOr<CliFlags> parse(int argc, const char* const* argv);

  /// parse() for a binary's main: a malformed argument, a flag not in
  /// `known`, or (unless `positional_ok`) a positional argument prints what
  /// was wrong and the known flags, then exits with status 2. A binary must
  /// never quietly run a configuration other than the one asked for.
  static CliFlags parse_or_exit(int argc, const char* const* argv,
                                std::initializer_list<std::string_view> known,
                                bool positional_ok = false);

  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }
  /// Names of every flag given (`--no-x` is listed as "x"), sorted; lets a
  /// caller reject the ones it does not know.
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace prose
