#include "support/cli.h"

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "support/strings.h"

namespace prose {

StatusOr<CliFlags> CliFlags::parse(int argc, const char* const* argv) {
  CliFlags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!starts_with(arg, "--")) {
      flags.positional_.emplace_back(arg);
      continue;
    }
    std::string_view body = arg.substr(2);
    if (body.empty()) {
      return Status(StatusCode::kInvalidArgument, "bare '--' is not a flag");
    }
    const std::size_t eq = body.find('=');
    if (eq != std::string_view::npos) {
      flags.values_[std::string(body.substr(0, eq))] = std::string(body.substr(eq + 1));
      continue;
    }
    if (starts_with(body, "no-")) {
      flags.values_[std::string(body.substr(3))] = "false";
      continue;
    }
    // `--name value` when the next token is not itself a flag; otherwise a
    // boolean `--name`.
    if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      flags.values_[std::string(body)] = argv[++i];
    } else {
      flags.values_[std::string(body)] = "true";
    }
  }
  return flags;
}

CliFlags CliFlags::parse_or_exit(int argc, const char* const* argv,
                                 std::initializer_list<std::string_view> known,
                                 bool positional_ok) {
  const auto usage_error = [&](const std::string& what) {
    std::cerr << argv[0] << ": " << what << "\nflags:";
    for (const std::string_view flag : known) std::cerr << " --" << flag;
    std::cerr << "\n";
    std::exit(2);
  };
  auto flags = parse(argc, argv);
  if (!flags.is_ok()) usage_error(flags.status().to_string());
  for (const std::string& name : flags->names()) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      usage_error("unknown flag --" + name);
    }
  }
  if (!positional_ok && !flags->positional().empty()) {
    usage_error("unexpected argument '" + flags->positional().front() + "'");
  }
  return std::move(flags.value());
}

std::vector<std::string> CliFlags::names() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [name, value] : values_) out.push_back(name);
  return out;
}

bool CliFlags::has(const std::string& name) const { return values_.contains(name); }

std::string CliFlags::get_string(const std::string& name, const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t CliFlags::get_int(const std::string& name, std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

double CliFlags::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

bool CliFlags::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string v = to_lower(it->second);
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

}  // namespace prose
