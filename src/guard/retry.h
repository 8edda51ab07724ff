// Fault-isolated retry: the one loop every work unit runs under.
//
// When one work unit throws a recoverable error (numeric, invariant, or
// timeout — see severity_of in base/error.h), run_isolated retries it on a
// RE-DERIVED RNG stream instead of aborting the whole run, then degrades
// it to a recorded failure once the attempts are spent. Its five users
// each supply only the unit body: a sweep bias point and a stability-map
// cell (analysis/sweep.cpp), a `jumps <n> <repeats>` repeat
// (analysis/driver.cpp), and an ensemble replica on the measurement and on
// the general path (analysis/ensemble.cpp). Determinism contract:
//
//   * attempt 0 uses exactly derive_stream_seed(base_seed, unit), so a run
//     where nothing fails is bitwise identical to a run without the retry
//     layer at any thread count;
//   * attempt k > 0 salts the unit seed with the attempt counter through a
//     SplitMix64 round, so the retried trajectory is a fresh independent
//     stream but still a pure function of (base_seed, unit, attempt) —
//     never of which thread retried or how long the backoff slept.
//
// The capped exponential backoff exists for transient environmental
// failures (an NFS checkpoint write, an overloaded host); pure in-process
// numeric retries keep the default base of 0 and never sleep.
#pragma once

#include <cstdint>

#include "base/error.h"
#include "base/random.h"

namespace semsim {

struct RetryPolicy {
  /// Fail-fast: rethrow the first per-unit error instead of isolating it
  /// (the pre-guard behavior; CLI --strict).
  bool strict = false;
  /// Total attempts per unit, including the first. 1 disables retry.
  std::uint32_t max_attempts = 3;
  /// First backoff delay (before attempt 1); doubles per further attempt.
  double backoff_base_seconds = 0.0;
  double backoff_cap_seconds = 0.5;

  /// True when `code` should be retried under this policy (never in strict
  /// mode, never for fatal categories like parse/circuit errors).
  bool should_retry(ErrorCode code, std::uint32_t attempts_done) const {
    return !strict && attempts_done < max_attempts && is_retryable(code);
  }
};

/// RNG stream seed for attempt `attempt` of work unit `unit`. Attempt 0
/// reproduces derive_stream_seed exactly (see contract above).
inline std::uint64_t retry_stream_seed(std::uint64_t base_seed,
                                       std::uint64_t unit,
                                       std::uint32_t attempt) noexcept {
  if (attempt == 0) return derive_stream_seed(base_seed, unit);
  return derive_stream_seed(
      splitmix64_mix(base_seed ^ (0xA5A5'5A5A'0F0F'F0F0ULL +
                                  static_cast<std::uint64_t>(attempt))),
      unit);
}

/// Backoff before attempt `attempt` (>= 1): base * 2^(attempt-1), capped.
double retry_backoff_seconds(const RetryPolicy& policy,
                             std::uint32_t attempt) noexcept;

/// Sleeps for `seconds` (no-op for <= 0).
void retry_sleep(double seconds);

/// How a fault-isolated unit ended. `code` is the last attempt's error:
/// kNone when the first attempt succeeded, set on a retried success
/// (ok, attempts > 1) and on a degraded unit (!ok).
struct RetryOutcome {
  bool ok = true;
  ErrorCode code = ErrorCode::kNone;
  std::uint32_t attempts = 1;
};

/// Runs one work unit under `policy`. `attempt(k)` executes attempt k
/// (0-based; the caller derives the attempt's stream from k) and throws a
/// coded Error on failure. `discard()` runs after every failed attempt,
/// before the retry decision: it harvests the failed engine's work and
/// audit trail and, where the unit keeps one engine across points,
/// replaces it. A retryable code sleeps the backoff and tries again; in
/// strict mode the first error is rethrown with `context()` prepended to
/// its context chain; otherwise the unit degrades to a failed outcome.
/// kCancelled is always rethrown untouched — a cancel is never a unit
/// failure.
template <typename Attempt, typename Discard, typename Context>
RetryOutcome run_isolated(const RetryPolicy& policy, Attempt&& attempt,
                          Discard&& discard, Context&& context) {
  std::uint32_t tried = 0;
  ErrorCode last_code = ErrorCode::kNone;
  for (;;) {
    try {
      attempt(tried);
      return {true, last_code, tried + 1};
    } catch (Error& e) {
      if (e.code() == ErrorCode::kCancelled) throw;
      ++tried;
      last_code = e.code() == ErrorCode::kNone ? ErrorCode::kUnknown : e.code();
      discard();
      if (policy.should_retry(last_code, tried)) {
        retry_sleep(retry_backoff_seconds(policy, tried));
        continue;
      }
      if (policy.strict) {
        e.add_context(context());
        throw;
      }
      return {false, last_code, tried};
    }
  }
}

}  // namespace semsim
