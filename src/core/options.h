// Configuration of the SEMSIM Monte-Carlo engine.
#pragma once

#include <chrono>
#include <cstdint>

#include "guard/fault.h"
#include "guard/integrity.h"

namespace semsim {

/// Parameters of the adaptive solver (paper Algorithm 1).
struct AdaptiveOptions {
  /// false selects the conventional non-adaptive solver: every island
  /// potential and every junction rate recomputed after every event.
  bool enabled = true;

  /// The paper's threshold alpha: a junction's rate is recalculated when its
  /// accumulated potential drift (times e) reaches alpha * |dW'| of either
  /// tunneling direction, where dW' was stored at the last recalculation.
  /// Smaller = more accurate, slower. The fig7 experiments use 0.05.
  double threshold = 0.05;

  /// Cumulative-error control: every this many events, all potentials and
  /// all rates are recomputed exactly (paper Sec. III-B, "all junction
  /// tunneling rates are recalculated periodically"). 0 = auto:
  /// max(1000, 2 * junction_count), which keeps the amortized refresh cost
  /// at O(1) rate evaluations per event regardless of circuit size — with a
  /// fixed interval the refresh would dominate large circuits and cap the
  /// Fig. 6 speedup. Per-junction staleness is unaffected: in a larger
  /// circuit each junction sees proportionally fewer of the events between
  /// refreshes.
  std::uint64_t refresh_interval = 0;
};

struct EngineOptions {
  /// Simulation temperature [K].
  double temperature = 0.0;

  /// Enable second-order inelastic cotunneling channels. Handled by the
  /// non-adaptive path per the paper.
  bool cotunneling = false;

  AdaptiveOptions adaptive;

  /// Opt-in fast thermal rate kernel (--fast-rates): single-electron rates
  /// at T > 0 go through tunnel_rates_batch_fast, and cotunneling channels
  /// through cotunneling_rate_fast (polynomial expm1, <= 1e-12 relative
  /// error per channel), instead of the bitwise-exact libm kernels.
  /// Trajectories are still deterministic for a given seed, but are NOT
  /// bitwise comparable to exact-mode runs. No effect at T = 0 or on
  /// superconducting (quasi-particle / Cooper-pair) channels.
  bool fast_rates = false;

  /// Cooper-pair lifetime broadening eta [J]; 0 selects the per-junction
  /// default hbar * Delta / (e^2 R_N). Only used for superconducting
  /// circuits.
  double cp_broadening = 0.0;

  /// Half-range of the tabulated quasi-particle rate in |delta_w| [J];
  /// 0 derives a range from the circuit's sources, gaps, and charging
  /// energies. Out-of-range lookups fall back to the direct integral
  /// (correct but slow), so sweeps should pass a hint covering the sweep.
  double qp_table_half_range = 0.0;

  /// RNG seed for the event solver.
  std::uint64_t seed = 1;

  /// Periodic runtime invariant auditing (guard/integrity.h). Enabled by
  /// default at the auto cadence; the audit is read-only and draws no RNG,
  /// so trajectories are bitwise identical with it on or off.
  AuditOptions audit;

  /// Deterministic fault injection for tests/benches (guard/fault.h).
  /// Default-constructed = disarmed; costs one pointer test per event.
  FaultInjector fault;
};

/// Convergence-based stopping for Monte-Carlo measurements (obs subsystem):
/// instead of a fixed event budget, run until the autocorrelation-aware
/// (binned) relative error of the measured observable drops below a target.
/// The stopping decision of a work unit depends only on that unit's own
/// sample stream, so parallel runs stay bitwise thread-count independent.
struct StopCriterion {
  /// Hard event cap per measurement; 0 = unlimited (requires a target).
  std::uint64_t max_events = 0;

  /// Stop once binned_stderr / |mean| <= this; 0 disables convergence
  /// stopping (the measurement then runs exactly max_events).
  double target_rel_error = 0.0;

  /// Events between convergence checks; 0 = auto (a few thousand events,
  /// cheap relative to the simulation itself).
  std::uint64_t check_interval = 0;

  bool convergence_enabled() const noexcept { return target_rel_error > 0.0; }
};

/// Work counters for the performance evaluation (Fig. 6 discusses exactly
/// this ratio: "the total number of tunnel rate and node potential
/// calculations solved for the adaptive approach over ... non-adaptive").
struct SolverStats {
  std::uint64_t events = 0;
  std::uint64_t rate_evaluations = 0;       ///< single-electron/QP channel evals
  std::uint64_t cp_rate_evaluations = 0;
  std::uint64_t cot_rate_evaluations = 0;
  std::uint64_t potential_node_updates = 0; ///< per-island potential writes
  std::uint64_t junctions_tested = 0;       ///< Algorithm 1 line-3 tests
  std::uint64_t junctions_flagged = 0;
  std::uint64_t full_refreshes = 0;
  std::uint64_t source_updates = 0;

  /// Field-wise sum: how every driver merges the work of several engines.
  SolverStats& operator+=(const SolverStats& s) noexcept {
    events += s.events;
    rate_evaluations += s.rate_evaluations;
    cp_rate_evaluations += s.cp_rate_evaluations;
    cot_rate_evaluations += s.cot_rate_evaluations;
    potential_node_updates += s.potential_node_updates;
    junctions_tested += s.junctions_tested;
    junctions_flagged += s.junctions_flagged;
    full_refreshes += s.full_refreshes;
    source_updates += s.source_updates;
    return *this;
  }
};

/// Per-run observability counters for the parallel drivers: solver work
/// summed over all work units (each unit runs on one engine; units are
/// merged on the calling thread in index order, so the totals are
/// thread-count independent) plus the wall time of the parallel region,
/// which is the only field that legitimately varies with the thread count.
struct RunCounters {
  unsigned threads = 1;           ///< worker count of the parallel region
  std::uint64_t units = 0;        ///< work units executed (points/rows/seeds)
  std::uint64_t events = 0;       ///< tunnel events simulated
  std::uint64_t rate_evaluations = 0;  ///< SE/QP + CP + cotunneling evals
  std::uint64_t flags_raised = 0;      ///< adaptive junctions flagged
  std::uint64_t full_refreshes = 0;
  double wall_seconds = 0.0;      ///< wall clock of the parallel region

  void absorb(const SolverStats& s) noexcept {
    ++units;
    events += s.events;
    rate_evaluations +=
        s.rate_evaluations + s.cp_rate_evaluations + s.cot_rate_evaluations;
    flags_raised += s.junctions_flagged;
    full_refreshes += s.full_refreshes;
  }

  /// Adds the wall time elapsed since `t0` to wall_seconds.
  void add_wall_since(std::chrono::steady_clock::time_point t0) noexcept {
    wall_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }
};

}  // namespace semsim
