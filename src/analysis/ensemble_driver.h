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
//
// The header also declares the two helpers run_simulation and run_ensemble
// share: the run's executor and its checkpoint opener.
#pragma once

#include <memory>
#include <optional>

#include "analysis/driver.h"

namespace semsim {

// ---- shared by run_simulation and run_ensemble ---------------------------

/// The run's executor: the caller's shared pool when options.executor is
/// set (the service daemon shares one long-lived pool across jobs), else a
/// private one sized from options.threads, constructed in `owned`. Either
/// way the results are identical — thread count never affects them.
const ParallelExecutor& run_executor(const DriverOptions& options,
                                     std::optional<ParallelExecutor>& owned);

/// Opens the run's checkpoint file — options.checkpoint_path, or
/// options.resume_path, which must then exist — for a run laid out as
/// `units` work units of kind `tag` ("partition", "transient", "repeats",
/// "ensemble"). nullptr when the run is not checkpointed. The file's
/// fingerprint mixes run_fingerprint with the tag and `shape` (the slice,
/// repeat or replica count), so a file of another layout is rejected.
std::unique_ptr<RunCheckpoint> open_run_checkpoint(
    const SimulationInput& input, const DriverOptions& options,
    const char* tag, std::uint64_t shape, std::size_t units);

// ---- the ensemble driver --------------------------------------------------

/// Runs the ensemble options.ensemble describes over `input`. Requires
/// options.ensemble.enabled (run_simulation routes here). Throws only when
/// the whole ensemble is unusable: invalid spec, strict-mode unit failure,
/// cancellation, or every replica failed.
DriverResult run_ensemble(const SimulationInput& input,
                          const DriverOptions& options);

}  // namespace semsim
