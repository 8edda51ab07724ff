#include "analysis/driver.h"

#include <chrono>
#include <memory>
#include <optional>
#include <type_traits>

#include "analysis/api.h"
#include "analysis/ensemble_driver.h"
#include "base/constants.h"
#include "base/error.h"
#include "base/math_util.h"
#include "base/random.h"
#include "base/thread_pool.h"
#include "core/partition.h"
#include "guard/retry.h"

namespace semsim {

namespace {

/// Checkpoint request from the driver options; resume_path wins and demands
/// an existing file.
CheckpointConfig checkpoint_config(const SimulationInput& input,
                                   const DriverOptions& options) {
  CheckpointConfig ckpt;
  if (!options.resume_path.empty()) {
    ckpt.path = options.resume_path;
    ckpt.require_existing = true;
  } else {
    ckpt.path = options.checkpoint_path;
  }
  ckpt.salvage = options.salvage_checkpoint;
  if (ckpt.enabled()) ckpt.fingerprint = run_fingerprint(input, options);
  return ckpt;
}

/// The recorded junctions' transferred charge [e] in `sim` (an Engine or a
/// PartitionedEngine), one entry per probe.
template <class Sim>
std::vector<double> transferred_e(const Sim& sim,
                                  const std::vector<CurrentProbe>& probes) {
  std::vector<double> q;
  for (const CurrentProbe& p : probes) {
    q.push_back(sim.junction_transferred_e(p.junction));
  }
  return q;
}

/// Transfer-count current estimate, shared by the transient and the
/// partitioned paths: the probes' mean current from the charge each passed
/// since `q0` was taken at time `t0`. A probe without a `q0` entry (a run
/// that stopped before its warm-up ended) contributes nothing.
template <class Sim>
CurrentEstimate transfer_current(const Sim& sim,
                                 const std::vector<CurrentProbe>& probes,
                                 const std::vector<double>& q0, double t0,
                                 std::uint64_t events) {
  CurrentEstimate est;
  const double dt = sim.time() - t0;
  double acc = 0.0;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const double q_end = sim.junction_transferred_e(probes[i].junction);
    acc += probes[i].sign * kElementaryCharge *
           (q_end - (i < q0.size() ? q0[i] : q_end));
  }
  est.mean = dt > 0.0 ? acc / static_cast<double>(probes.size()) / dt : 0.0;
  est.sim_time = dt;
  est.events = events;
  return est;
}

/// The domain-decomposed measurement path (core/partition.h): one global
/// trajectory advanced by per-cluster engines under conservative time
/// windowing. Shape and estimator mirror the transient path — warm up,
/// then measure the mean current from transfer-count deltas over the
/// measured span — except the span is defined in events (`jumps`), the
/// warm-up is `jumps`/10, and the standard error comes from eight
/// contiguous blocks of per-barrier samples.
///
/// Checkpoint/bitwise contract: the run ALWAYS takes its per-cluster
/// snapshots at the 32 fixed event milestones (unit 0 = warm-up), whether
/// or not a checkpoint file is configured — Engine::snapshot() performs a
/// canonicalizing full update, so snapshotting only on the checkpointed
/// path would make checkpointed and plain runs diverge. With the
/// milestones unconditional, a daemon job (spool-checkpointed) and a plain
/// CLI run of the same request produce byte-identical result documents,
/// and interrupted + resumed equals uninterrupted.
DriverResult run_partitioned(const SimulationInput& input,
                             const DriverOptions& options) {
  // Coded kCircuitInvalid so the CLI exits 3 ("your input is wrong") and
  // the daemon answers a coded error response, per the exit-code table.
  require(!input.sweep.has_value(), ErrorCode::kCircuitInvalid,
          "partition: sweeps are not supported; partition the single-run "
          "measurement instead");
  require(input.max_time == 0.0, ErrorCode::kCircuitInvalid,
          "partition: time-bounded transients are not supported");
  require(input.repeats <= 1, ErrorCode::kCircuitInvalid,
          "partition: `jumps <n> <repeats>` multi-seed runs are not "
          "supported");
  require(!options.stop.convergence_enabled(), ErrorCode::kCircuitInvalid,
          "partition: convergence stopping is not supported");

  const EngineOptions eo = engine_options_for(input, options);
  std::vector<CurrentProbe> probes;
  for (const std::size_t j : input.record_junctions) probes.push_back({j, 1.0});
  require(!probes.empty(),
          "run_simulation: current measurement requires `record`");

  std::optional<ParallelExecutor> owned_exec;
  const ParallelExecutor& exec = run_executor(options, owned_exec);

  const std::uint64_t jumps = input.max_jumps > 0 ? input.max_jumps : 10000;
  const std::uint64_t warmup = std::max<std::uint64_t>(jumps / 10, 100);
  // The 1-cluster chunk size: run_events chunks are trajectory-neutral, so
  // this only fixes where the (canonicalizing) milestones can land; any
  // configuration-pure value works.
  const std::uint64_t chunk =
      std::max<std::uint64_t>(64, (warmup + jumps) / 256);
  constexpr std::uint64_t kSlices = 32;
  const auto milestone = [&](std::uint64_t u) {
    return (jumps * u + kSlices - 1) / kSlices;
  };

  const auto wall0 = std::chrono::steady_clock::now();
  throw_if_cancelled(options.cancel, "partitioned run");
  input.circuit.build_caches();
  // The global model feeds only the planner's kappa scan; each cluster
  // engine factorizes its own (much smaller) sub-circuit model.
  const ElectrostaticModel model(input.circuit, &exec);
  PartitionedEngine part(input.circuit, model, eo, options.partition, &exec);

  const std::unique_ptr<RunCheckpoint> cp =
      open_run_checkpoint(input, options, "partition", kSlices, kSlices + 1);
  if (options.progress != nullptr) {
    options.progress->on_run_started(kSlices + 1, 0);
  }

  bool warmed = false;
  std::uint64_t warm_events = 0;
  double t0 = 0.0;
  std::vector<double> q0;
  // Per-barrier samples after warm-up: (time, summed signed transfer),
  // feeding the blocked standard error below.
  std::vector<double> sample_t;
  std::vector<double> sample_q;

  const auto signed_transfer = [&]() {
    double acc = 0.0;
    for (std::size_t i = 0; i < probes.size(); ++i) {
      acc += probes[i].sign * part.junction_transferred_e(probes[i].junction);
    }
    return acc;
  };
  const auto encode_state = [&]() {
    BinaryWriter w;
    const std::vector<EngineSnapshot> snaps = part.snapshot_clusters();
    w.u32(static_cast<std::uint32_t>(snaps.size()));
    for (const EngineSnapshot& s : snaps) encode_engine_snapshot(w, s);
    w.u64(part.windows_done());
    w.u8(warmed ? 1 : 0);
    w.u64(warm_events);
    w.f64(t0);
    w.vec_f64(q0);
    w.vec_f64(sample_t);
    w.vec_f64(sample_q);
    return w.take();
  };

  std::uint64_t next_unit = 0;
  if (cp) {
    const std::int64_t done = cp->last_unit();
    if (done >= 0) {
      // Named local: payload() returns by value and the reader only
      // borrows the bytes.
      const std::vector<std::uint8_t> state =
          cp->payload(static_cast<std::size_t>(done));
      BinaryReader r(state);
      const std::uint32_t n = r.u32();
      require(n == part.clusters(),
              "checkpoint: partition cluster count mismatch");
      std::vector<EngineSnapshot> snaps;
      snaps.reserve(n);
      for (std::uint32_t c = 0; c < n; ++c) {
        snaps.push_back(decode_engine_snapshot(r));
      }
      const std::uint64_t windows = r.u64();
      warmed = r.u8() != 0;
      warm_events = r.u64();
      t0 = r.f64();
      q0 = r.vec_f64();
      sample_t = r.vec_f64();
      sample_q = r.vec_f64();
      r.require_done();
      part.restore_clusters(snaps, windows);
      next_unit = static_cast<std::uint64_t>(done) + 1;
    }
  }

  const auto reach_milestone = [&](std::uint64_t unit) {
    const std::vector<std::uint8_t> state = encode_state();
    if (cp) cp->record(unit, state);
    if (options.progress != nullptr) {
      options.progress->on_unit_done(static_cast<std::size_t>(unit));
    }
  };

  while (next_unit <= kSlices) {
    throw_if_cancelled(options.cancel, "partition window");
    if (part.windows_done() >= kMaxPartitionWindows) {
      throw Error(ErrorCode::kNoProgress,
                  "partition: window budget of " +
                      std::to_string(kMaxPartitionWindows) +
                      " windows exhausted at " +
                      std::to_string(part.total_events()) + " of " +
                      std::to_string(warmup + jumps) +
                      " events; use a longer --partition-window or 0 (auto)");
    }
    part.advance_window(chunk);
    const std::uint64_t total = part.total_events();
    if (!warmed && total >= warmup) {
      warmed = true;
      warm_events = total;
      t0 = part.time();
      q0 = transferred_e(part, probes);
      if (next_unit == 0) {
        reach_milestone(0);
        next_unit = 1;
      }
    }
    if (warmed) {
      sample_t.push_back(part.time());
      sample_q.push_back(signed_transfer());
      const std::uint64_t measured = total - warm_events;
      while (next_unit <= kSlices && measured >= milestone(next_unit)) {
        reach_milestone(next_unit);
        ++next_unit;
      }
    }
    if (part.exhausted()) break;  // nothing can ever fire again
  }

  DriverResult result;
  if (!warmed) {
    // Exhausted before the warm-up target: measure nothing.
    t0 = part.time();
  }
  CurrentEstimate est =
      transfer_current(part, probes, q0, t0, part.total_events());
  // Blocked standard error: eight contiguous blocks of barrier samples,
  // each contributing its own mean-current slope.
  if (sample_t.size() >= 16) {
    RunningStats blocks;
    const std::size_t n = sample_t.size();
    for (std::size_t b = 0; b < 8; ++b) {
      const std::size_t lo = b * n / 8;
      const std::size_t hi = std::min(n - 1, (b + 1) * n / 8);
      const double bt = sample_t[hi] - sample_t[lo];
      if (bt > 0.0) {
        blocks.add(kElementaryCharge * (sample_q[hi] - sample_q[lo]) /
                   static_cast<double>(probes.size()) / bt);
      }
    }
    if (blocks.count() > 1) est.stderr_mean = blocks.stderr_mean();
  }
  result.current = est;
  result.simulated_time = part.time();
  result.events = part.total_events();
  result.stats = part.merged_stats();
  result.integrity.merge(part.merged_integrity());
  result.counters.threads = exec.threads();
  result.counters.absorb(result.stats);
  result.counters.units = part.clusters();
  result.counters.add_wall_since(wall0);
  return result;
}

}  // namespace

const ParallelExecutor& run_executor(const DriverOptions& options,
                                     std::optional<ParallelExecutor>& owned) {
  if (options.executor != nullptr) return *options.executor;
  return owned.emplace(options.threads);
}

std::unique_ptr<RunCheckpoint> open_run_checkpoint(
    const SimulationInput& input, const DriverOptions& options,
    const char* tag, std::uint64_t shape, std::size_t units) {
  const CheckpointConfig ckpt = checkpoint_config(input, options);
  if (!ckpt.enabled()) return nullptr;
  BinaryWriter fp;
  fp.u64(ckpt.fingerprint);
  fp.str(tag);
  fp.u64(shape);
  return std::make_unique<RunCheckpoint>(
      ckpt.path, fnv1a64(fp.bytes().data(), fp.bytes().size()), units,
      ckpt.require_existing, ckpt.salvage);
}

std::uint64_t run_fingerprint(const SimulationInput& input,
                              const DriverOptions& options) {
  BinaryWriter w;
  w.u64(input.circuit.node_count());
  w.u64(input.circuit.junction_count());
  for (const Junction& j : input.circuit.junctions()) {
    w.i64(j.a);
    w.i64(j.b);
    w.f64(j.resistance);
    w.f64(j.capacitance);
  }
  w.u64(input.circuit.capacitor_count());
  for (const Capacitor& c : input.circuit.capacitors()) {
    w.i64(c.a);
    w.i64(c.b);
    w.f64(c.capacitance);
  }
  w.f64(input.temperature);
  w.u8(input.cotunneling ? 1 : 0);
  w.u64(input.max_jumps);
  w.u32(input.repeats);
  w.f64(input.max_time);
  w.u64(input.record_junctions.size());
  for (const std::size_t j : input.record_junctions) w.u64(j);
  w.u8(input.sweep.has_value() ? 1 : 0);
  if (input.sweep) {
    w.i64(input.sweep->source);
    w.i64(input.sweep->mirror);
    w.f64(input.sweep->max);
    w.f64(input.sweep->step);
  }
  // Options tail, frozen order. fast_rates selects a different
  // (approximate) rate kernel, so runs are not resumable across the flag:
  // it must change the fingerprint.
  w.u64(options.seed);
  w.u8(options.adaptive ? 1 : 0);
  w.u8(options.fast_rates ? 1 : 0);
  w.u64(options.stop.max_events);
  w.f64(options.stop.target_rel_error);
  w.u64(options.stop.check_interval);
  // Spec appendices, each field typed by its C++ type in for_each_field
  // order. A spec contributes bytes ONLY when enabled, so every
  // pre-ensemble / pre-partition fingerprint (and with it every existing
  // checkpoint and cached result) is unchanged.
  const auto field = [&w](const char*, const char*, const auto& v) {
    using T = std::decay_t<decltype(v)>;
    if constexpr (std::is_same_v<T, std::uint32_t>) {
      w.u32(v);
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      w.u64(v);
    } else if constexpr (std::is_same_v<T, double>) {
      w.f64(v);
    } else {
      w.u8(static_cast<std::uint8_t>(v));  // PerturbationSpec::Dist
    }
  };
  if (options.ensemble.enabled) {
    w.u8(1);
    for_each_field(options.ensemble, field);
  }
  if (options.partition.enabled) {
    w.u8(1);
    for_each_field(options.partition, field);
  }
  return fnv1a64(w.bytes().data(), w.bytes().size());
}

DriverResult run_simulation(const SimulationInput& input,
                            const DriverOptions& options) {
  // Ensemble runs replicate the whole input N times with perturbed element
  // values; everything below this dispatch is the single-device path the
  // ensemble driver builds on (and recurses into, with ensemble disabled).
  if (options.ensemble.enabled) return run_ensemble(input, options);

  // Domain-decomposed single-run path (core/partition.h). Dispatched on
  // the request flag, not the effective cluster count: a partition the
  // planner refuses to cut still runs through the partitioned runner (on
  // its bitwise-solo 1-cluster path), so the fingerprint, checkpoint
  // layout and result document are consistent for every `--partitions`
  // value.
  if (options.partition.enabled) return run_partitioned(input, options);

  const EngineOptions eo = engine_options_for(input, options);

  std::vector<CurrentProbe> probes;
  for (const std::size_t j : input.record_junctions) probes.push_back({j, 1.0});

  std::optional<ParallelExecutor> owned_exec;
  const ParallelExecutor& exec = run_executor(options, owned_exec);

  DriverResult result;
  if (input.sweep) {
    require(!probes.empty(),
            "run_simulation: sweep requires a `record` directive");
    IvSweepConfig cfg = sweep_config_from_input(input);
    if (options.stop.convergence_enabled()) {
      cfg.stop = options.stop;
      // `jumps` keeps meaning an event budget: reuse it as the hard cap
      // when the stop criterion does not bring its own.
      if (cfg.stop.max_events == 0) cfg.stop.max_events = input.max_jumps;
    }
    cfg.retry = options.retry;
    cfg.cancel = options.cancel;
    cfg.progress = options.progress;
    ParallelSweepConfig par;
    par.base_seed = options.seed;
    result.sweep = run_iv_sweep(input.circuit, eo, cfg, exec, par,
                                &result.counters,
                                checkpoint_config(input, options),
                                &result.integrity);
    for (std::size_t i = 0; i < result.sweep.size(); ++i) {
      const IvPoint& p = result.sweep[i];
      if (p.status != PointStatus::kFailed) continue;
      result.failures.push_back(
          {i, p.error, p.attempts,
           "sweep point " + std::to_string(i) + " (V = " +
               std::to_string(p.bias) + ") " + point_status_label(p)});
    }
    result.events = result.counters.events;
    // The per-unit SolverStats are merged into the counters; mirror the
    // totals into `stats` for callers that only look there.
    result.stats.events = result.counters.events;
    result.stats.rate_evaluations = result.counters.rate_evaluations;
    result.stats.junctions_flagged = result.counters.flags_raised;
    result.stats.full_refreshes = result.counters.full_refreshes;
    return result;
  }

  if (input.max_time > 0.0) {
    // Fixed simulated span: a single transient, inherently serial. Measure
    // over the whole window after a warm-up tenth (paper: "until the
    // desired simulation time is met"). Unit 0 is the warm-up, units 1..N
    // fixed time slices. Each slice boundary clamps one waiting-time draw
    // and each snapshot canonicalizes, so — as on the partitioned path —
    // EVERY run slices and snapshots; only the recording needs a checkpoint
    // (unit k's payload subsumes all earlier ones).
    constexpr std::uint64_t kSlices = 32;
    const auto wall0 = std::chrono::steady_clock::now();
    throw_if_cancelled(options.cancel, "transient");
    Engine engine(input.circuit, eo);
    const std::unique_ptr<RunCheckpoint> cp =
        open_run_checkpoint(input, options, "transient", kSlices, kSlices + 1);
    const double warmup_t = 0.1 * input.max_time;
    double t0 = 0.0;
    std::vector<double> q0;
    if (options.progress != nullptr) {
      options.progress->on_run_started(kSlices + 1, 0);
    }
    const std::int64_t done = cp ? cp->last_unit() : -1;
    if (done >= 0) {
      const std::vector<std::uint8_t> bytes =
          cp->payload(static_cast<std::size_t>(done));
      BinaryReader r(bytes);
      engine.restore(decode_engine_snapshot(r));
      t0 = r.f64();
      q0 = r.vec_f64();
      r.require_done();
    }
    for (std::uint64_t k = static_cast<std::uint64_t>(done + 1); k <= kSlices;
         ++k) {
      throw_if_cancelled(options.cancel, "transient slice");
      if (k == 0) {
        engine.run_until(warmup_t);
        t0 = engine.time();
        q0 = transferred_e(engine, probes);
      } else {
        const double t_end =
            k == kSlices
                ? input.max_time
                : warmup_t + static_cast<double>(k) *
                                 (input.max_time - warmup_t) / kSlices;
        engine.run_until(t_end);
      }
      const EngineSnapshot snap = engine.snapshot();
      if (cp) {
        BinaryWriter w;
        encode_engine_snapshot(w, snap);
        w.f64(t0);
        w.vec_f64(q0);
        cp->record(k, w.take());
      }
      if (options.progress != nullptr) {
        options.progress->on_unit_done(static_cast<std::size_t>(k));
      }
    }
    if (!probes.empty()) {
      result.current =
          transfer_current(engine, probes, q0, t0, engine.event_count());
    }
    result.simulated_time = engine.time();
    result.events = engine.event_count();
    result.stats = engine.stats();
    result.integrity.merge(engine.integrity_report());
    result.counters.threads = 1;
    result.counters.add_wall_since(wall0);
    result.counters.absorb(result.stats);
    return result;
  }

  require(!probes.empty(),
          "run_simulation: current measurement requires `record`");
  const std::uint64_t jumps = input.max_jumps > 0 ? input.max_jumps : 10000;
  CurrentMeasureConfig cfg;
  cfg.measure_events = jumps;
  cfg.warmup_events = std::max<std::uint64_t>(jumps / 10, 100);
  // The paper's `jumps <count> <repeats>`: independent reruns averaged
  // (Fig. 7 uses nine such repeats per point). Each repeat is a work unit
  // with its own engine, seeded from (seed, repeat_index) so the averaged
  // estimate is identical for every thread count.
  const std::uint32_t repeats = std::max<std::uint32_t>(input.repeats, 1);

  input.circuit.build_caches();
  auto model = std::make_shared<const ElectrostaticModel>(input.circuit, &exec);

  struct RepeatResult {
    CurrentEstimate estimate;
    double sim_time = 0.0;
    SolverStats stats;
    /// Convergence mode only: the repeat's sample statistics.
    ConvergedCurrentResult converged;
    /// Fault isolation: a failed repeat (!ok) is excluded from the merge.
    RetryOutcome outcome;
    /// Audit trail across every attempt's engine (not checkpointed — the
    /// trail is a diagnostic, not part of the run identity).
    IntegrityReport integrity;
  };
  const bool use_convergence = options.stop.convergence_enabled();
  StopCriterion stop = options.stop;
  if (use_convergence && stop.max_events == 0) stop.max_events = jumps;

  const std::unique_ptr<RunCheckpoint> cp =
      open_run_checkpoint(input, options, "repeats", repeats, repeats);
  const auto encode_repeat = [&](const RepeatResult& r) {
    BinaryWriter w;
    w.u8(r.outcome.ok ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(r.outcome.code));
    w.u32(r.outcome.attempts);
    w.f64(r.estimate.mean);
    w.f64(r.estimate.stderr_mean);
    w.f64(r.estimate.sim_time);
    w.u64(r.estimate.events);
    w.f64(r.sim_time);
    encode_solver_stats(w, r.stats);
    w.u8(use_convergence ? 1 : 0);
    if (use_convergence) {
      r.converged.samples.encode(w);
      w.f64(r.converged.tau_int);
      w.f64(r.converged.rel_error);
      w.u8(r.converged.converged ? 1 : 0);
    }
    return w.take();
  };
  const auto decode_repeat = [&](const std::vector<std::uint8_t>& bytes) {
    BinaryReader rd(bytes);
    RepeatResult r;
    r.outcome.ok = rd.u8() != 0;
    r.outcome.code = static_cast<ErrorCode>(rd.u32());
    r.outcome.attempts = rd.u32();
    r.estimate.mean = rd.f64();
    r.estimate.stderr_mean = rd.f64();
    r.estimate.sim_time = rd.f64();
    r.estimate.events = rd.u64();
    r.sim_time = rd.f64();
    r.stats = decode_solver_stats(rd);
    const bool has_samples = rd.u8() != 0;
    require(has_samples == use_convergence,
            "checkpoint: repeat payload does not match the stop criterion");
    if (has_samples) {
      r.converged.samples = BinningAccumulator::decode(rd);
      r.converged.tau_int = rd.f64();
      r.converged.rel_error = rd.f64();
      r.converged.converged = rd.u8() != 0;
      r.converged.estimate = r.estimate;
    }
    rd.require_done();
    return r;
  };

  const auto t0 = std::chrono::steady_clock::now();
  if (options.progress != nullptr) options.progress->on_run_started(repeats, 0);
  const std::vector<RepeatResult> runs_out =
      exec.map<RepeatResult>(repeats, [&](std::size_t rpt) {
        if (cp && cp->has(rpt)) {
          RepeatResult restored = decode_repeat(cp->payload(rpt));
          if (options.progress != nullptr) options.progress->on_unit_done(rpt);
          return restored;
        }
        throw_if_cancelled(options.cancel, "repeat");
        // Fault-isolated repeat: recoverable errors rebuild the engine on
        // the re-derived retry stream; an exhausted repeat is recorded as
        // failed and excluded from the merge instead of aborting the run.
        RepeatResult r;
        std::optional<Engine> slot;
        r.outcome = run_isolated(
            options.retry,
            [&](std::uint32_t attempt) {
              slot.emplace(input.circuit,
                           unit_engine_options(eo, options.seed, rpt, attempt),
                           model);
              if (use_convergence) {
                r.converged = measure_current_converged(
                    *slot, probes, cfg.warmup_events, stop);
                r.estimate = r.converged.estimate;
              } else {
                r.estimate = measure_mean_current(*slot, probes, cfg);
              }
              r.sim_time = slot->time();
              r.stats += slot->stats();
              r.integrity.merge(slot->integrity_report());
            },
            [&] {
              if (!slot) return;
              r.stats += slot->stats();
              r.integrity.merge(slot->integrity_report());
            },
            [&] { return "repeat " + std::to_string(rpt); });
        if (cp) cp->record(rpt, encode_repeat(r));
        if (options.progress != nullptr) options.progress->on_unit_done(rpt);
        return r;
      });
  result.counters.threads = exec.threads();
  result.counters.add_wall_since(t0);

  // Merge in repeat-index order on this thread: every statistic below is
  // bitwise independent of the worker count. Failed repeats contribute
  // their work counters and audit trail but are excluded from the
  // statistics; the run degrades to the surviving repeats.
  RunningStats runs;
  ConvergedCurrentResult merged;
  bool all_converged = true;
  const RepeatResult* last_ok = nullptr;
  for (std::size_t rpt = 0; rpt < runs_out.size(); ++rpt) {
    const RepeatResult& r = runs_out[rpt];
    result.simulated_time += r.sim_time;
    result.stats += r.stats;
    result.counters.absorb(r.stats);
    result.integrity.merge(r.integrity);
    if (!r.outcome.ok) {
      result.failures.push_back(
          {rpt, r.outcome.code, r.outcome.attempts,
           "repeat " + std::to_string(rpt) + " failed:" +
               error_code_name(r.outcome.code)});
      continue;
    }
    runs.add(r.estimate.mean);
    if (use_convergence) {
      merged.samples.merge(r.converged.samples);
      all_converged = all_converged && r.converged.converged;
    }
    last_ok = &r;
  }
  if (last_ok == nullptr) {
    throw Error(result.failures.empty() ? ErrorCode::kUnknown
                                        : result.failures.back().code,
                "run_simulation: all " + std::to_string(runs_out.size()) +
                    " repeats failed — no current estimate survives");
  }
  CurrentEstimate est = last_ok->estimate;
  if (use_convergence) {
    // Across independent repeats the merged accumulator is the natural
    // estimator: its binned error accounts for in-stream autocorrelation,
    // which the naive spread over a handful of repeat means cannot.
    est.mean = merged.samples.mean();
    est.stderr_mean = merged.samples.binned_error();
    merged.estimate = est;
    merged.tau_int = merged.samples.tau_int();
    merged.rel_error = merged.samples.rel_error();
    merged.converged = all_converged;
    result.converged = std::move(merged);
  } else {
    est.mean = runs.mean();
    if (runs.count() > 1) est.stderr_mean = runs.stderr_mean();
  }
  result.current = est;
  result.events = result.stats.events;
  return result;
}

}  // namespace semsim
