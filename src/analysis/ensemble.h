// Statistical device-variability ensembles (ROADMAP item 3).
//
// An EnsembleSpec describes a POPULATION of device replicas: N copies of
// one parsed netlist whose element values are perturbed replica by replica
// — background-charge offsets (absolute, units of e), junction R/C and
// plain-capacitor spread (relative factors), and operating temperature
// (relative factor) — the way Nano-Sim builds its statistical
// nanotechnology ensembles. Everything is deterministic:
//
//   * the EFFECTIVE ensemble seed is spec.seed, or the run seed when
//     spec.seed == 0;
//   * replica r's perturbation draws come from a dedicated Xoshiro256
//     stream seeded derive_stream_seed(effective ^ kPerturbationTag, r),
//     disjoint from the trajectory streams by the tag, and a pure function
//     of (effective seed, r) — replica r's device is IDENTICAL no matter
//     how many replicas the ensemble holds (replica-independence contract,
//     tests/test_ensemble.cpp);
//   * replica r's trajectory stream is retry_stream_seed(effective, r,
//     attempt), the same unit/attempt derivation every other work-unit kind
//     uses (guard/retry.h).
//
// The spec travels on RunRequest/DriverOptions, is folded into the run
// fingerprint (only when enabled — a disabled spec leaves the fingerprint
// byte-identical to pre-ensemble builds), and is serialized by the
// `semsim.run_result/v3` document and the service envelope codec. The
// scalar fields are listed once, by for_each_field in
// analysis/ensemble_spec.h, which the codec, the CLI flag parser and the
// fingerprint walk.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/current.h"
#include "analysis/ensemble_spec.h"
#include "analysis/sweep.h"
#include "base/error.h"
#include "netlist/parser.h"

namespace semsim {

/// The per-replica perturbation draws, materialized. Factors are already
/// clamped to their physical floors; vectors are indexed like the circuit's
/// element tables (bg_offset_e by ASCENDING island node id).
struct ReplicaPerturbation {
  double temperature_factor = 1.0;
  std::vector<double> r_factor;      ///< per junction
  std::vector<double> c_factor;      ///< per junction
  std::vector<double> cap_factor;    ///< per plain capacitor
  std::vector<double> bg_offset_e;   ///< per island, ascending node id
};

/// Draws replica `replica`'s perturbation from its dedicated stream. Pure
/// function of (input shape, spec, effective_seed, replica) — independent
/// of the total replica count.
ReplicaPerturbation draw_replica_perturbation(const SimulationInput& input,
                                              const EnsembleSpec& spec,
                                              std::uint64_t effective_seed,
                                              std::uint32_t replica);

/// The perturbed input replica `replica` simulates: a deep copy of `input`
/// with junction R/C, capacitor values, island background charges, and the
/// temperature rescaled per draw_replica_perturbation.
SimulationInput materialize_replica(const SimulationInput& input,
                                    const EnsembleSpec& spec,
                                    std::uint64_t effective_seed,
                                    std::uint32_t replica);

// ---- results --------------------------------------------------------------

/// One replica's outcome. A replica that exhausted its retry budget
/// (guard/retry.h) keeps its row with ok == false and the failure code —
/// fault isolation degrades the single poisoned replica, never the
/// ensemble — and is excluded from the cross-replica statistics.
struct ReplicaRow {
  std::uint32_t replica = 0;
  bool ok = true;
  ErrorCode code = ErrorCode::kNone;  ///< last failure (also set on retried-ok)
  std::uint32_t attempts = 1;
  CurrentEstimate current;  ///< measurement runs; zero for pure sweeps
  /// The scalar the cross-replica band and the yield window judge:
  /// current.mean for measurement runs, the peak |I| over ok points for
  /// sweep replicas.
  double observable = 0.0;
  double sim_time = 0.0;  ///< total simulated span of the replica [s]
  std::uint64_t events = 0;
  std::vector<IvPoint> sweep;  ///< sweep runs: the replica's full I-V table
};

/// "ok", "retried", or "failed:<code>" — the status string the v3 document
/// and the CLI ensemble table print for a replica row.
std::string replica_status_label(const ReplicaRow& row);

/// Cross-replica band over one observable: mean / spread (sample stddev) /
/// envelope over the ok replicas, plus the yield fraction — ok replicas
/// whose |observable| falls inside the spec's yield window, over ALL
/// replicas (a failed replica is a yield loss).
struct EnsembleBandStats {
  double mean = 0.0;
  double spread = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::uint32_t n_ok = 0;
  double yield = 0.0;
};

/// Per-bias-point band of a swept ensemble.
struct EnsemblePointStats {
  double bias = 0.0;
  EnsembleBandStats stats;
};

struct EnsembleResult {
  std::uint32_t replicas = 0;
  std::uint64_t seed = 0;  ///< effective ensemble seed
  std::vector<ReplicaRow> rows;  ///< replica index order, one per replica
  EnsembleBandStats observable_stats;  ///< band over ReplicaRow::observable
  std::vector<EnsemblePointStats> sweep_stats;  ///< sweeps: band per bias
};

}  // namespace semsim
