// Command-line flag helpers shared by every tool in this directory
// (semsim, semsim_submit, semsim_serve, semsim_chaos). Header-only and
// included by relative path, so any build that compiles tools/ gets it
// without a library target. A malformed value prints a message naming the
// flag and exits 2 (usage).
#pragma once

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>

#include "analysis/ensemble_spec.h"
#include "core/partition_spec.h"

namespace semsim {

/// Matches `--name VALUE` (consuming the next argv) or `--name=VALUE`.
inline bool flag_value(const std::string& a, const char* name, int argc,
                       char** argv, int& i, std::string* value) {
  const std::size_t len = std::strlen(name);
  if (a.compare(0, len, name) == 0 && a.size() > len && a[len] == '=') {
    *value = a.substr(len + 1);
    return true;
  }
  if (a == name && i + 1 < argc) {
    *value = argv[++i];
    return true;
  }
  return false;
}

/// Prints `<flag>: <what>: <text>` and exits 2 (usage).
[[noreturn]] inline void flag_error(const char* flag, const char* what,
                                    const std::string& text) {
  std::fprintf(stderr, "%s: %s: %s\n", flag, what, text.c_str());
  std::exit(2);
}

/// Strict decimal parse; anything but a plain non-negative integer is fatal.
inline std::uint64_t parse_u64(const char* flag, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const std::uint64_t v = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
      text.find('-') != std::string::npos) {
    flag_error(flag, "not a non-negative integer", text);
  }
  return v;
}

inline double parse_f64(const char* flag, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    flag_error(flag, "not a number", text);
  }
  return v;
}

/// A count (--repeats, --retries, spec counts): an integer in [1, 2^32).
inline std::uint32_t parse_count(const char* flag, const std::string& text) {
  const std::uint64_t n = parse_u64(flag, text);
  if (n == 0 || n > 0xFFFFFFFFULL) flag_error(flag, "out of range", text);
  return static_cast<std::uint32_t>(n);
}

/// A strictly positive, finite real (--target-rel-error).
inline double parse_positive_f64(const char* flag, const std::string& text) {
  const double v = parse_f64(flag, text);
  if (!(v > 0.0) || !std::isfinite(v)) {
    flag_error(flag, "must be a positive finite number", text);
  }
  return v;
}

/// Strict signed decimal int (--priority).
inline int parse_int(const char* flag, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE || v < INT_MIN ||
      v > INT_MAX) {
    flag_error(flag, "not an integer", text);
  }
  return static_cast<int>(v);
}

/// Matches `a` against the CLI flags for_each_field lists for the spec
/// (EnsembleSpec or PartitionSpec). On a match it parses the value into
/// the field, enables the spec and returns true. A count (uint32_t) must
/// be >= 1 (parse_count).
template <class Spec>
bool parse_spec_flag(const std::string& a, int argc, char** argv, int& i,
                     Spec* spec) {
  bool matched = false;
  for_each_field(*spec, [&](const char*, const char* flag, auto& field) {
    std::string v;
    if (matched || !flag_value(a, flag, argc, argv, i, &v)) return;
    matched = true;
    using T = std::remove_reference_t<decltype(field)>;
    if constexpr (std::is_same_v<T, std::uint32_t>) {
      field = parse_count(flag, v);
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      field = parse_u64(flag, v);
    } else if constexpr (std::is_same_v<T, double>) {
      field = parse_f64(flag, v);
    } else if (!perturbation_dist_from(v, &field)) {  // Dist
      flag_error(flag, "unknown distribution (gaussian|uniform)", v);
    }
  });
  if (matched) spec->enabled = true;
  return matched;
}

}  // namespace semsim
