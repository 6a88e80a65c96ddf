#pragma once
// `--key=value` flag parsing shared by baffle_sim and baffle_sweep.
//
// A tool hands parse_flags() its --help text, and the flag names it
// accepts are exactly the `--name` tokens of that text: the help list and
// the parser cannot drift apart, and a misspelled flag exits 2 instead of
// silently running with the default.
//
// Values parse as whole tokens: an integer, real, boolean (0|1|true|
// false) or enum name with anything left over — `abc`, `4x`, an unknown
// name — exits 2 with one line, `invalid --NAME=VALUE: reason`, instead
// of running with a prefix or a default. Range and cross-field checks
// belong to the library's config validation, not to this parser.

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace baffle::cli {

struct Flags {
  std::map<std::string, std::string> values;

  bool has(const std::string& key) const { return values.count(key) > 0; }

  std::string str(const std::string& key, const std::string& fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  double num(const std::string& key, double fallback) const {
    return has(key) ? to_real(key, values.at(key)) : fallback;
  }
  long integer(const std::string& key, long fallback) const {
    return has(key) ? to_integer(key, values.at(key)) : fallback;
  }
  bool flag(const std::string& key, bool fallback) const {
    if (!has(key)) return fallback;
    const std::string& token = values.at(key);
    if (token == "1" || token == "true") return true;
    if (token == "0" || token == "false") return false;
    fail(key, "expected 0|1|true|false");
  }

  /// The value `names` maps flag `key` to (`fallback` when the flag is
  /// absent); a name outside the list exits 2.
  template <typename T>
  T choice(const std::string& key, T fallback,
           std::initializer_list<std::pair<const char*, T>> names) const {
    if (!has(key)) return fallback;
    const std::string& token = values.at(key);
    std::string accepted;
    for (const auto& [name, value] : names) {
      if (token == name) return value;
      accepted += (accepted.empty() ? "" : "|") + std::string(name);
    }
    fail(key, "expected " + accepted);
  }

  /// The comma-separated elements of flag `key` (of `fallback` when the
  /// flag is absent; none when the value is empty); an empty element
  /// exits 2.
  std::vector<std::string> list(const std::string& key,
                                const std::string& fallback = "") const {
    std::vector<std::string> out;
    const std::string csv = str(key, fallback);
    if (csv.empty()) return out;
    std::size_t pos = 0;
    for (;;) {
      const std::size_t comma = csv.find(',', pos);
      const std::size_t end = comma == std::string::npos ? csv.size() : comma;
      if (end == pos) fail(key, "empty list element");
      out.push_back(csv.substr(pos, end - pos));
      if (comma == std::string::npos) return out;
      pos = comma + 1;
    }
  }
  std::vector<long> integers(const std::string& key) const {
    std::vector<long> out;
    for (const std::string& token : list(key)) {
      out.push_back(to_integer(key, token));
    }
    return out;
  }

  /// Parse one token of flag `key` (its whole value, or one element of
  /// its list); a token with anything left over exits 2.
  long to_integer(const std::string& key, const std::string& token) const {
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(token.c_str(), &end, 10);
    if (!starts_number(token) || *end != '\0') {
      fail(key, "'" + token + "' is not an integer");
    }
    if (errno == ERANGE) fail(key, "'" + token + "' is out of range");
    return v;
  }
  double to_real(const std::string& key, const std::string& token) const {
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (!starts_number(token) || *end != '\0' || !std::isfinite(v)) {
      fail(key, "'" + token + "' is not a finite number");
    }
    return v;
  }

  /// Prints `invalid --KEY=VALUE: reason` and exits 2.
  [[noreturn]] void fail(const std::string& key,
                         const std::string& reason) const {
    std::fprintf(stderr, "invalid --%s=%s: %s\n", key.c_str(),
                 str(key, "").c_str(), reason.c_str());
    std::exit(2);
  }

 private:
  // strtol/strtod skip leading whitespace; a whole token may not.
  static bool starts_number(const std::string& token) {
    return !token.empty() &&
           (token[0] == '-' || token[0] == '+' || token[0] == '.' ||
            (token[0] >= '0' && token[0] <= '9'));
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
