#pragma once
// `--key=value` flag parsing shared by the command-line tools.
//
// Every tool declares the keys it understands; a key outside that list
// (a misspelling such as --lookbak=40) stops the run with exit status 2
// instead of silently falling back to the default. Values are checked
// the same way: enumerated ones through Flags::choice, numbers and
// booleans through the typed accessors, which accept only a value that
// parses whole (--rounds=3x, --clients=1e2, --seed=-1, --iid=no are all
// errors).

#include <charconv>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

namespace baffle::tools {

/// Whole-string parses: nullopt unless all of `text` is the value —
/// no sign on a count, no blanks, no trailing characters.
/// A count is a non-negative decimal integer that fits std::size_t.
inline std::optional<std::size_t> parse_count(std::string_view text) {
  std::size_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

/// A real is a finite decimal floating-point number.
inline std::optional<double> parse_real(std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end ||
      !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

struct Flags {
  std::map<std::string, std::string> values;
  /// Set when a typed accessor below meets a malformed value (each is
  /// named on stderr). The tool reads every flag, then exits with
  /// status 2 if any was bad.
  mutable bool bad = false;

  bool has(const std::string& key) const { return values.count(key) > 0; }

  std::string str(const std::string& key, const std::string& fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  /// The comma-separated items of `key` (empty items dropped).
  std::vector<std::string> list(const std::string& key,
                                const std::string& fallback) const {
    const std::string csv = str(key, fallback);
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= csv.size()) {
      const std::size_t comma = csv.find(',', pos);
      const std::size_t end = comma == std::string::npos ? csv.size() : comma;
      if (end > pos) out.push_back(csv.substr(pos, end - pos));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    return out;
  }
  double num(const std::string& key, double fallback) const {
    return has(key) ? real_value(key, str(key, "")) : fallback;
  }
  std::size_t count(const std::string& key, std::size_t fallback) const {
    return has(key) ? count_value(key, str(key, "")) : fallback;
  }
  /// 0|1|false|true.
  bool flag(const std::string& key, bool fallback) const {
    if (!has(key)) return fallback;
    const std::string value = str(key, "");
    if (value == "1" || value == "true") return true;
    if (value != "0" && value != "false") reject(key, value, "0|1");
    return false;
  }

  /// `value`, one item given for --key, as a count (see parse_count) or
  /// a real; a malformed one is reported and read as 0.
  std::size_t count_value(const std::string& key,
                          const std::string& value) const {
    if (const auto v = parse_count(value)) return *v;
    reject(key, value, "a non-negative integer");
    return 0;
  }
  double real_value(const std::string& key, const std::string& value) const {
    if (const auto v = parse_real(value)) return *v;
    reject(key, value, "a finite number");
    return 0.0;
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

 private:
  void reject(const std::string& key, const std::string& value,
              const char* expected) const {
    std::fprintf(stderr, "bad --%s value: %s (expected %s)\n", key.c_str(),
                 value.c_str(), expected);
    bad = true;
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
