#pragma once
// `--key=value` flag parsing shared by the command-line tools.
//
// Every tool declares the keys it understands; a key outside that list
// (a misspelling such as --lookbak=40) stops the run with exit status 2
// instead of silently falling back to the default. Enumerated values
// are checked the same way through Flags::choice.

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace baffle::tools {

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

  /// The value of `key` (or `fallback` when absent) if it is one of
  /// `allowed`; otherwise reports the bad value on stderr and returns
  /// nullopt, and the caller exits with status 2.
  std::optional<std::string> choice(
      const std::string& key, const std::string& fallback,
      std::initializer_list<std::string_view> allowed) const {
    const std::string value = str(key, fallback);
    std::string listed;
    for (const std::string_view a : allowed) {
      if (value == a) return value;
      if (!listed.empty()) listed += '|';
      listed += a;
    }
    std::fprintf(stderr, "unknown --%s value: %s (expected %s)\n",
                 key.c_str(), value.c_str(), listed.c_str());
    return std::nullopt;
  }
};

// GCC 12 emits a spurious -Wrestrict from the inlined std::string copy of
// the "1" literal below (GCC PR105329); suppress it for the parse loop.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"

/// Parses argv into `flags`: `--key=value`, or bare `--key` meaning
/// `--key=1`. Returns nullopt to go on running, otherwise the status the
/// tool should exit with: 0 after printing --help, 2 for an argument
/// that is not a flag or a key outside `known` (named on stderr).
inline std::optional<int> parse_flags(
    int argc, char** argv, std::initializer_list<std::string_view> known,
    void (*print_help)(), Flags& flags) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_help();
      return 0;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unknown argument: %s (try --help)\n",
                   arg.c_str());
      return 2;
    }
    const std::string body = arg.substr(2);
    const std::size_t eq = body.find('=');
    std::string key = body.substr(0, eq);
    bool is_known = false;
    for (const std::string_view k : known) is_known = is_known || key == k;
    if (!is_known) {
      std::fprintf(stderr, "unknown flag: --%s (try --help)\n", key.c_str());
      return 2;
    }
    flags.values.insert_or_assign(
        std::move(key),
        eq == std::string::npos ? std::string("1") : body.substr(eq + 1));
  }
  return std::nullopt;
}

#pragma GCC diagnostic pop

}  // namespace baffle::tools
