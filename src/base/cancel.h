// Cooperative cancellation for long-running drivers.
//
// A CancelToken is a shared flag a controller (the service scheduler, a
// signal handler) raises and a running driver polls at work-unit and
// bias-point boundaries. Cancellation is deliberately coarse-grained: a
// checked point either completes normally — and is checkpointed — or is
// never started, so a cancelled run's checkpoint file always holds a clean
// prefix of finished units that a resubmitted run resumes from bitwise
// exactly (obs/checkpoint.h). Observing the token never draws RNG or
// perturbs results: a run that is not cancelled is bitwise identical to one
// executed without a token.
#pragma once

#include <atomic>
#include <string>

#include "base/error.h"

namespace semsim {

/// Thread-safe stop flag. The controller calls request_stop(); workers poll
/// stop_requested() and throw Error(ErrorCode::kCancelled) at the next
/// safe boundary.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void request_stop() noexcept { stop_.store(true, std::memory_order_relaxed); }
  bool stop_requested() const noexcept {
    return stop_.load(std::memory_order_relaxed);
  }
  /// Re-arms the token for reuse (tests; a scheduler allocates per job).
  void reset() noexcept { stop_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> stop_{false};
};

/// Throws Error(kCancelled) when `cancel` is raised. Drivers check it
/// OUTSIDE their retry try-blocks, so a cancellation is never degraded into
/// a recorded failure (a failed row would be checkpointed and survive a
/// resume).
inline void throw_if_cancelled(const CancelToken* cancel, const char* where) {
  if (cancel != nullptr && cancel->stop_requested()) {
    throw Error(ErrorCode::kCancelled,
                std::string("run cancelled before ") + where);
  }
}

}  // namespace semsim
