// The PartitionSpec wire/option type, split from core/partition.h the same
// way analysis/ensemble_spec.h is split from analysis/ensemble.h: the
// service envelope codec (io/envelope.cpp — semsim_io, which the simulation
// libraries link, not the reverse) carries the spec without pulling the
// engine headers or a link cycle into the io layer. Everything here is
// header-only; the partition planner itself lives in core/partition.h.
//
// for_each_field (below) is the one list of the spec's scalar fields, as
// analysis/ensemble_spec.h has for EnsembleSpec.
#pragma once

#include <cmath>
#include <concepts>
#include <cstdint>
#include <type_traits>

#include "base/error.h"

namespace semsim {

/// Window budget of one partitioned run. Nothing else bounds the window
/// count (simulated time / window): a window far below the event spacing
/// spins through empty barriers (e.g. a 1e-9 s window on a blockaded
/// device needing ~1e3 s of simulated time). Empty windows cost ~1 us, so
/// the budget fails such a run within seconds. At the auto window (about
/// 256 events per cluster per window) it still admits runs of 10^8+ events.
inline constexpr std::uint64_t kMaxPartitionWindows = std::uint64_t{1} << 20;

/// Domain-decomposition request for a single measurement run: split the
/// junction graph into weakly-coupled clusters and advance them under
/// conservative time windowing (core/partition.h).
struct PartitionSpec {
  /// Presence flag: a request without a partition section is exactly a
  /// disabled spec, and a disabled spec contributes nothing to the run
  /// fingerprint or the result document (pre-partition compatibility).
  bool enabled = false;

  /// Requested cluster count (--partitions). The planner never cuts a
  /// strongly-coupled component, so the effective count may be lower;
  /// 1 runs the whole circuit on the solo engine path (bitwise identical
  /// to a non-partitioned run).
  std::uint32_t clusters = 1;

  /// Synchronization window [s]; 0 = auto (derived from the partition's
  /// strongest cross-cut coupling and the circuit's initial total rate).
  double window = 0.0;

  /// Relative kappa threshold |k_ij| / sqrt(k_ii * k_jj) above which two
  /// islands must share a cluster. The default brackets the 0.5 aF
  /// inter-island coupling against the ~23 aF self-capacitance of the SET
  /// logic family (ratio ~ 0.022): couplings at or below that strength are
  /// cuttable, anything stronger is glued.
  double coupling_threshold = 0.025;

  /// Throws Error on structural nonsense. Header-only so the io codec can
  /// validate without linking semsim_core.
  void validate() const {
    require(clusters >= 1, "partition: clusters must be >= 1");
    require(std::isfinite(window) && window >= 0.0,
            "partition: window must be finite and >= 0");
    require(std::isfinite(coupling_threshold) && coupling_threshold > 0.0,
            "partition: coupling_threshold must be finite and > 0");
  }
};

/// The scalar fields of a PartitionSpec, listed once: calls
/// f(json_name, cli_flag, member) per field. The JSON names live inside the
/// "partition" object of the submit envelope and of the v3 result document;
/// passing any of the flags enables partitioned execution. The order is
/// the fingerprint appendix's byte layout, FROZEN like the ensemble one.
template <class Spec, class F>
  requires std::same_as<std::remove_const_t<Spec>, PartitionSpec>
void for_each_field(Spec& s, F&& f) {
  f("clusters", "--partitions", s.clusters);
  f("window", "--partition-window", s.window);
  f("coupling_threshold", "--partition-threshold", s.coupling_threshold);
}

}  // namespace semsim
