// Ensemble run driver: simulates a population of perturbed device replicas.
//
// run_ensemble is the execution half of analysis/ensemble.h — run_simulation
// dispatches here when options.ensemble.enabled. Two execution modes:
//
//   * the MEASUREMENT path, for plain fixed-budget current measurements
//     (no sweep, no transient window, no convergence stopping, repeats = 1):
//     one work unit per replica, each a plain solo Engine on the replica's
//     derived stream measured by measure_mean_current — the single-device
//     estimator, so each row is exactly what that replica yields alone;
//   * the GENERAL path, for sweeps, transients, convergence-stopped and
//     multi-repeat runs: one work unit per replica, each recursing into the
//     single-device run_simulation with the replica's derived seed.
//
// Both paths share the determinism contract (replica r's streams are pure
// functions of the effective ensemble seed and r), the per-replica fault
// isolation (a poisoned replica retries on a re-derived stream, then
// degrades to a failed:<code> row; the other N-1 replicas are bitwise
// untouched), and the replica-granular RunCheckpoint ("ensemble"
// sub-fingerprint) that makes cancel -> resume bitwise lossless.
#pragma once

#include "analysis/driver.h"

namespace semsim {

/// Runs the ensemble options.ensemble describes over `input`. Requires
/// options.ensemble.enabled (run_simulation routes here). Throws only when
/// the whole ensemble is unusable: invalid spec, strict-mode unit failure,
/// cancellation, or every replica failed.
DriverResult run_ensemble(const SimulationInput& input,
                          const DriverOptions& options);

}  // namespace semsim
