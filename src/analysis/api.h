// The single stable entry point for running a simulation.
//
// Every front end used to hand-assemble Engine + EngineOptions +
// StopCriterion slightly differently (the CLI, the driver's transient and
// repeats paths, the parallel sweep, the benches). This header collapses
// that into one request/response pair in the style of the ALPS/VWSIM
// simulation facades:
//
//   RunRequest req;
//   req.input = parse_simulation_file("set.sem");
//   req.seed = 42;
//   RunResult res = run(req);
//   res.to_json();   // versioned machine-readable document
//
// plus the two helpers the drivers themselves are built on —
// engine_options_for() (one place that maps input + options to
// EngineOptions) and unit_engine_options() (one place that seeds a work
// unit's engine from (base_seed, unit, attempt)).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "analysis/driver.h"
#include "core/engine.h"

namespace semsim {

/// Everything that defines a run: the parsed input (circuit + directives)
/// plus every run option. The options are RunOptionsCore (driver.h) by
/// inheritance — RunRequest and DriverOptions are the SAME option surface
/// by construction, so a field added to the core exists on both with no
/// mirroring code (the old drift hazard across api.h/driver.h/semsim_cli).
struct RunRequest : RunOptionsCore {
  SimulationInput input;

  /// The equivalent DriverOptions (the shared RunOptionsCore slice).
  DriverOptions driver_options() const;
  /// The EngineOptions every engine of this run starts from.
  EngineOptions engine_options() const;
  /// Run identity hash (same value as run_fingerprint on the equivalent
  /// DriverOptions): covers circuit, directives, seed, solver and stop
  /// criterion, but never the thread count.
  std::uint64_t fingerprint() const;
};

/// A completed run: the driver payload plus the request identity, ready to
/// serialize.
struct RunResult {
  /// Version tag carried by every to_json() document. Bump the suffix when
  /// a field changes meaning or disappears; adding fields is compatible.
  /// v2 (integrity layer): sweep rows carry a "status" string, and the
  /// document gains "integrity" (audit trail) and "failures" (degraded
  /// work units). Every v1 field is still present with the same meaning,
  /// so v1 readers that ignore unknown fields keep working.
  /// v3 (ensemble engine): the document MAY carry an "ensemble" object —
  /// the spec echo, per-replica rows, and cross-replica band statistics.
  /// Absent "ensemble" == a single-device run == exactly the v2 shape, so
  /// v2 readers keep working and v2 documents remain parseable.
  static constexpr const char* kJsonSchema = "semsim.run_result/v3";

  DriverResult driver;
  std::uint64_t fingerprint = 0;  ///< RunRequest::fingerprint() of the run
  std::uint64_t seed = 0;
  bool adaptive = true;
  bool fast_rates = false;
  unsigned threads = 1;
  /// Spec echo for the v3 "ensemble" object (disabled on non-ensemble runs).
  EnsembleSpec ensemble;
  /// Spec echo for the optional "partition" object (absent when disabled;
  /// absent == exactly the pre-partition shape, same compatibility rule as
  /// "ensemble").
  PartitionSpec partition;

  /// Versioned machine-readable document: schema tag, run identity
  /// (fingerprint as a hex string — JSON numbers cannot carry 64 bits),
  /// currents with rel_err/tau_int/events, sweep table, solver stats and
  /// run counters. Parse with JsonValue::parse (io/json.h).
  ///
  /// `canonical` omits the fields that depend on the execution environment
  /// rather than the run identity — the top-level "threads" and the
  /// counters' "threads"/"wall_seconds" — making the document a pure
  /// function of the fingerprinted inputs. Two runs of the same request are
  /// byte-identical canonical documents at ANY thread count; the service
  /// daemon stores and serves this form, and CLI --canonical-json emits it
  /// for golden comparisons.
  std::string to_json(bool canonical = false) const;
};

/// The run fingerprint the way every JSON document spells it: 16 lowercase
/// hex digits, zero-padded (u64 identities cannot travel as JSON numbers).
std::string fingerprint_hex(std::uint64_t fingerprint);

/// Runs the simulation a request describes. Throws on structurally invalid
/// inputs, exactly like run_simulation.
RunResult run(const RunRequest& request);

/// One place that derives the engine configuration from a parsed input and
/// driver options: temperature and cotunneling come from the input file,
/// solver choice and base seed from the options.
EngineOptions engine_options_for(const SimulationInput& input,
                                 const DriverOptions& options);

/// EngineOptions for attempt `attempt` of work unit `unit`: `base` with its
/// seed replaced by retry_stream_seed(base_seed, unit, attempt) — exactly
/// derive_stream_seed(base_seed, unit) for attempt 0 — and its fault
/// injector rebound to (unit, attempt) so scheduled faults target the right
/// engine instance and do not re-fire on retries. Unit streams are what
/// make sweeps and multi-seed runs bitwise thread-count independent: they
/// depend on the unit index only, never on the executing thread.
EngineOptions unit_engine_options(const EngineOptions& base,
                                  std::uint64_t base_seed, std::size_t unit,
                                  std::uint32_t attempt = 0);

}  // namespace semsim
