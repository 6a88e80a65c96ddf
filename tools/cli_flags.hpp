#pragma once
// `--key=value` flag parsing shared by baffle_sim and baffle_sweep.
//
// A tool hands parse_flags() its --help text, and the flag names it
// accepts are exactly the `--name` tokens of that text: the help list and
// the parser cannot drift apart, and a misspelled flag exits 2 instead of
// silently running with the default.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <string>

namespace baffle::cli {

struct Flags {
  std::map<std::string, std::string> values;

  bool has(const std::string& key) const { return values.count(key) > 0; }

  std::string str(const std::string& key, const std::string& fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  double num(const std::string& key, double fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : std::strtod(it->second.c_str(),
                                                       nullptr);
  }
  long integer(const std::string& key, long fallback) const {
    const auto it = values.find(key);
    return it == values.end()
               ? fallback
               : std::strtol(it->second.c_str(), nullptr, 10);
  }
  bool flag(const std::string& key, bool fallback) const {
    const auto it = values.find(key);
    if (it == values.end()) return fallback;
    return it->second != "0" && it->second != "false";
  }
};

/// The `--name` tokens of a help text (name = [a-z0-9-]+).
inline std::set<std::string> help_flag_names(const std::string& help) {
  std::set<std::string> names;
  std::size_t pos = help.find("--");
  while (pos != std::string::npos) {
    const std::size_t begin = pos + 2;
    std::size_t end = begin;
    while (end < help.size() &&
           ((help[end] >= 'a' && help[end] <= 'z') ||
            (help[end] >= '0' && help[end] <= '9') || help[end] == '-')) {
      ++end;
    }
    if (end > begin) names.insert(help.substr(begin, end - begin));
    pos = help.find("--", end);
  }
  return names;
}

// GCC 12 emits a spurious -Wrestrict from the inlined std::string copy of
// the "1" literal below (GCC PR105329); suppress it for the parse loop.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"

/// Parses argv into `flags`; a bare `--key` means `--key=1`. Returns the
/// code main() should exit with now — 0 after printing `help` for
/// --help/-h, 2 for an argument that is not `--key[=value]` or names a
/// flag `help` does not list — or std::nullopt to go on and run.
inline std::optional<int> parse_flags(int argc, char** argv, const char* help,
                                      Flags& flags) {
  const std::set<std::string> known = help_flag_names(help);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::puts(help);
      return 0;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unknown argument: %s (try --help)\n",
                   arg.c_str());
      return 2;
    }
    const std::string body = arg.substr(2);
    const std::size_t eq = body.find('=');
    const std::string name = body.substr(0, eq);
    if (known.count(name) == 0) {
      std::fprintf(stderr, "unknown flag --%s (try --help)\n", name.c_str());
      return 2;
    }
    flags.values.insert_or_assign(
        name, eq == std::string::npos ? std::string("1") : body.substr(eq + 1));
  }
  return std::nullopt;
}

#pragma GCC diagnostic pop

}  // namespace baffle::cli
