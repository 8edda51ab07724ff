// Lockstep rounds over N replica engines.
//
// Each replica is a full, independent Engine over its own (perturbed)
// circuit — private RNG stream, event clock, Fenwick tree, adaptive solver.
// An EnsembleEngine advances them in EVENT ROUNDS: one round is one plain
// Engine::step() call on every runnable lane, in lane order. Lanes share
// nothing, so each lane's trajectory is bit for bit the one the same engine
// produces stepping alone (tests/test_ensemble.cpp locks this down).
//
// The analysis layer does not use this class: every ensemble replica runs
// as its own solo Engine (analysis/ensemble.cpp). It stays for the callers
// that want round-by-round control over a set of engines, such as the
// gang-versus-solo probe of the benchmark harness.
//
// Fault isolation: a lane whose step throws a coded Error (injected fault,
// audit violation) is marked failed and dropped from subsequent rounds; the
// other lanes are untouched.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "base/error.h"
#include "core/engine.h"

namespace semsim {

/// Drives N non-owned replica engines in lockstep rounds. The caller owns
/// the engines (and the circuits/models under them) and keeps them alive
/// for the ensemble's lifetime.
class EnsembleEngine {
 public:
  struct LaneState {
    bool enabled = true;  ///< caller gate (set_enabled) — lane skips rounds
    bool alive = true;    ///< false after an Error escaped the lane's step
    bool stuck = false;   ///< step() returned false (blockade, T = 0)
    ErrorCode code = ErrorCode::kNone;
    std::string message;
    bool runnable() const noexcept { return enabled && alive && !stuck; }
  };

  /// Each lane steps with its own EngineOptions; the fast-rates flag is
  /// accepted for source compatibility and not consulted.
  explicit EnsembleEngine(std::vector<Engine*> lanes, bool fast_rates);

  EnsembleEngine(const EnsembleEngine&) = delete;
  EnsembleEngine& operator=(const EnsembleEngine&) = delete;

  std::size_t lane_count() const noexcept { return lanes_.size(); }
  Engine& lane(std::size_t i) { return *lanes_[i]; }
  const LaneState& state(std::size_t i) const { return states_[i]; }

  /// Gates lane `i` out of (or back into) subsequent rounds.
  void set_enabled(std::size_t i, bool enabled) {
    states_[i].enabled = enabled;
  }

  /// Executes one event round over every runnable lane. Returns the number
  /// of lanes that executed an event this round (0 = every lane is gated,
  /// stuck, or failed). last_round_executed()[i] tells whether lane i
  /// stepped; the per-lane Event of the round is in last_event(i).
  std::size_t step_round();

  /// Runs up to `n` rounds, stopping early when a round executes nothing.
  /// Returns the total number of lane-events executed.
  std::uint64_t run_events(std::uint64_t n);

  const std::vector<std::uint8_t>& last_round_executed() const noexcept {
    return executed_;
  }
  const Event& last_event(std::size_t i) const { return events_[i]; }

 private:
  std::vector<Engine*> lanes_;
  std::vector<LaneState> states_;
  std::vector<std::uint8_t> executed_;
  std::vector<Event> events_;
};

}  // namespace semsim
