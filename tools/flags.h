// Command-line flag helpers shared by every tool in this directory
// (semsim, semsim_submit, semsim_serve, semsim_chaos). Header-only and
// included by relative path, so any build that compiles tools/ gets it
// without a library target. A malformed value prints a message naming the
// flag and exits 2 (usage).
#pragma once

#include <cerrno>
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

/// Strict decimal parse; anything but a plain non-negative integer is fatal.
inline std::uint64_t parse_u64(const char* flag, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const std::uint64_t v = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
      text.find('-') != std::string::npos) {
    std::fprintf(stderr, "%s: not a non-negative integer: %s\n", flag,
                 text.c_str());
    std::exit(2);
  }
  return v;
}

inline double parse_f64(const char* flag, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    std::fprintf(stderr, "%s: not a number: %s\n", flag, text.c_str());
    std::exit(2);
  }
  return v;
}

/// Matches `a` against the CLI flags for_each_field lists for the spec
/// (EnsembleSpec or PartitionSpec). On a match it parses the value into
/// the field, enables the spec and returns true. A count (uint32_t) must
/// be >= 1.
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
      const std::uint64_t n = parse_u64(flag, v);
      if (n == 0 || n > 0xFFFFFFFFULL) {
        std::fprintf(stderr, "%s: out of range: %s\n", flag, v.c_str());
        std::exit(2);
      }
      field = static_cast<std::uint32_t>(n);
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      field = parse_u64(flag, v);
    } else if constexpr (std::is_same_v<T, double>) {
      field = parse_f64(flag, v);
    } else if (!perturbation_dist_from(v, &field)) {  // Dist
      std::fprintf(stderr,
                   "%s: unknown distribution '%s' (gaussian|uniform)\n", flag,
                   v.c_str());
      std::exit(2);
    }
  });
  if (matched) spec->enabled = true;
  return matched;
}

}  // namespace semsim
