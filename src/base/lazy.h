// A value built on first use inside const member functions.
//
// A plain `mutable` cache filled by a const method is a data race once the
// object is shared across threads: a second reader can see the cache
// half-built. Lazy<T> builds the value under a mutex on the first get() and
// then publishes it through an atomic flag, so every later get() costs one
// atomic load (a plain load on x86) and a single-threaded caller pays what
// the unsynchronized cache cost.
#pragma once

#include <atomic>
#include <mutex>

namespace semsim {

template <typename T>
class Lazy {
 public:
  Lazy() = default;
  // A copy carries the source's value (or its absence). Copying only reads
  // the source, so it may run beside the source's get(): take its lock.
  Lazy(const Lazy& o) {
    const std::lock_guard<std::mutex> lock(o.mu_);
    value_ = o.value_;
    ready_ = o.ready_.load();
  }
  Lazy& operator=(const Lazy& o) {
    if (this != &o) {
      const std::lock_guard<std::mutex> lock(o.mu_);
      value_ = o.value_;
      ready_ = o.ready_.load();
    }
    return *this;
  }

  /// The value, built by `build()` (returning a T) on the first call.
  /// Safe to call from several threads at once.
  template <typename Build>
  const T& get(Build&& build) const {
    if (!ready_) {
      const std::lock_guard<std::mutex> lock(mu_);
      if (!ready_) {
        value_ = build();
        ready_ = true;
      }
    }
    return value_;
  }

  /// Drops the value so the next get() rebuilds it. For the owner's
  /// mutating members only: not concurrent with get().
  void reset() noexcept {
    value_ = T{};
    ready_ = false;
  }

 private:
  mutable std::mutex mu_;  // guards the build of value_
  mutable T value_{};
  mutable std::atomic<bool> ready_{false};
};

}  // namespace semsim
