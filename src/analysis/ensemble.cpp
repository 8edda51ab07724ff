#include "analysis/ensemble.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <string>

#include "analysis/api.h"
#include "analysis/ensemble_driver.h"
#include "base/thread_pool.h"
#include "guard/retry.h"
#include "obs/checkpoint.h"
#include "obs/ensemble_stats.h"

namespace semsim {

namespace {

/// Stream-domain tag of the perturbation draws: replica r's device comes
/// from Xoshiro256(derive_stream_seed(effective_seed ^ kPerturbationTag, r)),
/// disjoint from the trajectory streams (which never XOR the tag) and a pure
/// function of (effective_seed, r). Frozen — changing it changes every
/// perturbed ensemble.
constexpr std::uint64_t kPerturbationTag = 0x9D5EB0A7C1E4F083ULL;

constexpr double kTwoPi = 6.28318530717958647692;

/// Relative element-value factors never drop below this, so a deep negative
/// Gaussian tail cannot produce a non-physical (<= 0) resistance or
/// capacitance.
constexpr double kRelativeFactorFloor = 0.05;

double draw_z(Xoshiro256& rng, PerturbationSpec::Dist dist) {
  if (dist == PerturbationSpec::Dist::kUniform) {
    return 2.0 * rng.uniform01() - 1.0;
  }
  // Box-Muller; u1 in (0,1] keeps the log finite. Hand-rolled instead of
  // std::normal_distribution, whose draw sequence is not specified and
  // differs across standard libraries — the ensemble must be bitwise
  // portable like every other stream in the codebase.
  const double u1 = rng.uniform01_open_low();
  const double u2 = rng.uniform01();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
}

double relative_factor(Xoshiro256& rng, const PerturbationSpec& p) {
  if (!p.active()) return 1.0;
  return std::max(1.0 + p.spread * draw_z(rng, p.dist), kRelativeFactorFloor);
}

}  // namespace

ReplicaPerturbation draw_replica_perturbation(const SimulationInput& input,
                                              const EnsembleSpec& spec,
                                              std::uint64_t effective_seed,
                                              std::uint32_t replica) {
  ReplicaPerturbation p;
  Xoshiro256 rng(
      derive_stream_seed(effective_seed ^ kPerturbationTag, replica));
  // Fixed draw order — temperature, per-junction (R, C), per-capacitor C,
  // per-island offset — with INACTIVE perturbations drawing nothing, so
  // enabling one knob never reshuffles another knob's draws.
  if (spec.temperature.active()) {
    p.temperature_factor = std::max(
        1.0 + spec.temperature.spread * draw_z(rng, spec.temperature.dist),
        0.0);
  }
  const std::size_t nj = input.circuit.junction_count();
  p.r_factor.reserve(nj);
  p.c_factor.reserve(nj);
  for (std::size_t j = 0; j < nj; ++j) {
    p.r_factor.push_back(relative_factor(rng, spec.resistance));
    p.c_factor.push_back(relative_factor(rng, spec.capacitance));
  }
  const std::size_t nc = input.circuit.capacitor_count();
  p.cap_factor.reserve(nc);
  for (std::size_t c = 0; c < nc; ++c) {
    p.cap_factor.push_back(relative_factor(rng, spec.capacitance));
  }
  const std::vector<NodeId> islands = input.circuit.islands();
  p.bg_offset_e.reserve(islands.size());
  for (std::size_t i = 0; i < islands.size(); ++i) {
    p.bg_offset_e.push_back(
        spec.bg_charge.active()
            ? spec.bg_charge.spread * draw_z(rng, spec.bg_charge.dist)
            : 0.0);
  }
  return p;
}

SimulationInput materialize_replica(const SimulationInput& input,
                                    const EnsembleSpec& spec,
                                    std::uint64_t effective_seed,
                                    std::uint32_t replica) {
  SimulationInput out = input;
  const ReplicaPerturbation p =
      draw_replica_perturbation(input, spec, effective_seed, replica);
  out.temperature = input.temperature * p.temperature_factor;
  if (spec.resistance.active() || spec.capacitance.active()) {
    for (std::size_t j = 0; j < out.circuit.junction_count(); ++j) {
      const Junction& jn = input.circuit.junction(j);
      out.circuit.set_junction_parameters(j, jn.resistance * p.r_factor[j],
                                          jn.capacitance * p.c_factor[j]);
    }
  }
  if (spec.capacitance.active()) {
    for (std::size_t c = 0; c < out.circuit.capacitor_count(); ++c) {
      out.circuit.set_capacitor_value(
          c, input.circuit.capacitor(c).capacitance * p.cap_factor[c]);
    }
  }
  if (spec.bg_charge.active()) {
    const std::vector<NodeId> islands = out.circuit.islands();
    for (std::size_t i = 0; i < islands.size(); ++i) {
      out.circuit.set_background_charge(
          islands[i],
          input.circuit.background_charge_e(islands[i]) + p.bg_offset_e[i]);
    }
  }
  return out;
}

std::string replica_status_label(const ReplicaRow& row) {
  if (!row.ok) return std::string("failed:") + error_code_name(row.code);
  return row.attempts > 1 ? "retried" : "ok";
}

// ---- run_ensemble ---------------------------------------------------------

namespace {

/// One replica's complete contribution to the merged DriverResult. The
/// checkpoint payload serializes everything except the audit trail
/// (diagnostic, not run identity) — resuming reproduces a bitwise-identical
/// canonical document.
struct ReplicaOutcome {
  ReplicaRow row;
  SolverStats stats;
  IntegrityReport integrity;
  /// Degraded work units INSIDE an ok replica (failed sweep points of that
  /// replica's table), already "replica <r>: "-prefixed.
  std::vector<UnitFailure> inner_failures;
};

std::vector<std::uint8_t> encode_outcome(const ReplicaOutcome& o) {
  BinaryWriter w;
  w.u32(o.row.replica);
  w.u8(o.row.ok ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(o.row.code));
  w.u32(o.row.attempts);
  w.f64(o.row.current.mean);
  w.f64(o.row.current.stderr_mean);
  w.f64(o.row.current.sim_time);
  w.u64(o.row.current.events);
  w.f64(o.row.observable);
  w.f64(o.row.sim_time);
  w.u64(o.row.events);
  w.u64(o.row.sweep.size());
  for (const IvPoint& p : o.row.sweep) encode_iv_point(w, p);
  encode_solver_stats(w, o.stats);
  w.u64(o.inner_failures.size());
  for (const UnitFailure& f : o.inner_failures) {
    w.u64(f.unit);
    w.u32(static_cast<std::uint32_t>(f.code));
    w.u32(f.attempts);
    w.str(f.message);
  }
  return w.take();
}

ReplicaOutcome decode_outcome(const std::vector<std::uint8_t>& bytes) {
  BinaryReader r(bytes);
  ReplicaOutcome o;
  o.row.replica = r.u32();
  o.row.ok = r.u8() != 0;
  o.row.code = static_cast<ErrorCode>(r.u32());
  o.row.attempts = r.u32();
  o.row.current.mean = r.f64();
  o.row.current.stderr_mean = r.f64();
  o.row.current.sim_time = r.f64();
  o.row.current.events = r.u64();
  o.row.observable = r.f64();
  o.row.sim_time = r.f64();
  o.row.events = r.u64();
  const std::uint64_t np = r.u64();
  o.row.sweep.reserve(np);
  for (std::uint64_t p = 0; p < np; ++p) {
    o.row.sweep.push_back(decode_iv_point(r));
  }
  o.stats = decode_solver_stats(r);
  const std::uint64_t nf = r.u64();
  for (std::uint64_t f = 0; f < nf; ++f) {
    UnitFailure uf;
    uf.unit = r.u64();
    uf.code = static_cast<ErrorCode>(r.u32());
    uf.attempts = r.u32();
    uf.message = r.str();
    o.inner_failures.push_back(std::move(uf));
  }
  r.require_done();
  return o;
}

EnsembleBandStats to_band(const EnsembleAccumulator& a) {
  EnsembleBandStats b;
  b.mean = a.mean();
  b.spread = a.spread();
  b.min = a.min();
  b.max = a.max();
  b.n_ok = a.n_ok();
  b.yield = a.yield();
  return b;
}

void report_replica(const DriverOptions& options, RunCheckpoint* cp,
                    bool restored, std::uint32_t replica,
                    const ReplicaOutcome& o) {
  if (cp != nullptr && !restored) cp->record(replica, encode_outcome(o));
  if (options.progress != nullptr) {
    options.progress->on_replica_done(replica, o.row.ok);
    options.progress->on_unit_done(replica);
  }
}

// ---- per-replica execution ------------------------------------------------

/// One work unit per replica, on the replica's own streams. The plain
/// fixed-budget measurement shape (no sweep, no transient window, no
/// convergence stopping, one repeat) runs one solo Engine per replica,
/// measured by measure_mean_current exactly like a single-device run;
/// every other shape recurses into the single-device driver. A replica
/// whose run throws retries on its re-derived stream (guard/retry.h), then
/// degrades to a failed:<code> row; the other replicas never depend on it.
std::vector<ReplicaOutcome> run_replicas(const SimulationInput& input,
                                         const DriverOptions& options,
                                         const EnsembleSpec& spec,
                                         std::uint64_t eff,
                                         const ParallelExecutor& exec,
                                         RunCheckpoint* cp) {
  const bool plain = !input.sweep.has_value() && input.max_time <= 0.0 &&
                     std::max<std::uint32_t>(input.repeats, 1) == 1 &&
                     !options.stop.convergence_enabled() &&
                     !input.record_junctions.empty();
  std::vector<CurrentProbe> probes;
  for (const std::size_t j : input.record_junctions) probes.push_back({j, 1.0});
  const std::uint64_t jumps = input.max_jumps > 0 ? input.max_jumps : 10000;
  CurrentMeasureConfig cfg;
  cfg.measure_events = jumps;
  cfg.warmup_events = std::max<std::uint64_t>(jumps / 10, 100);

  // One capacitance-matrix inversion for every plain replica when no
  // perturbation touches a capacitance (R, background charge and
  // temperature never enter the electrostatic model).
  std::shared_ptr<const ElectrostaticModel> shared_model;
  if (plain && !spec.capacitance.active()) {
    shared_model = std::make_shared<const ElectrostaticModel>(input.circuit);
  }

  return exec.map<ReplicaOutcome>(spec.replicas, [&](std::size_t ru) {
    const std::uint32_t r = static_cast<std::uint32_t>(ru);
    ReplicaOutcome o;
    o.row.replica = r;
    if (cp != nullptr && cp->has(r)) {
      o = decode_outcome(cp->payload(r));
      report_replica(options, cp, /*restored=*/true, r, o);
      return o;
    }
    throw_if_cancelled(options.cancel, "ensemble replica");

    const SimulationInput rep = materialize_replica(input, spec, eff, r);
    const EngineOptions eo = engine_options_for(rep, options);
    std::optional<Engine> engine;  // the plain shape's engine
    const RetryOutcome out = run_isolated(
        options.retry,
        [&](std::uint32_t attempt) {
          if (plain) {
            engine.emplace(rep.circuit,
                           unit_engine_options(eo, eff, r, attempt),
                           shared_model);
            const CurrentEstimate est =
                measure_mean_current(*engine, probes, cfg);
            o.stats += engine->stats();
            o.integrity.merge(engine->integrity_report());
            o.row.current = est;
            o.row.observable = est.mean;
            o.row.sim_time = engine->time();
            o.row.events = engine->event_count();
            return;
          }
          // Every other shape recurses into the single-device driver: its
          // own sweep chunking, convergence stopping and inner fault
          // isolation, on a serial executor (the ensemble already shards
          // across replicas), with all streams derived from the replica
          // seed.
          DriverOptions sub = options;
          sub.ensemble = EnsembleSpec{};
          sub.seed = retry_stream_seed(eff, r, attempt);
          sub.threads = 1;
          sub.executor = nullptr;
          sub.checkpoint_path.clear();
          sub.resume_path.clear();
          sub.salvage_checkpoint = false;
          sub.progress = nullptr;
          DriverResult dr = run_simulation(rep, sub);
          o.stats += dr.stats;
          o.integrity.merge(dr.integrity);
          for (const UnitFailure& f : dr.failures) {
            o.inner_failures.push_back(
                {f.unit, f.code, f.attempts,
                 "replica " + std::to_string(r) + ": " + f.message});
          }
          o.row.sweep = std::move(dr.sweep);
          if (dr.current) o.row.current = *dr.current;
          o.row.sim_time = dr.simulated_time;
          o.row.events = dr.events;
          o.row.observable = o.row.current.mean;
          if (input.sweep.has_value()) {
            o.row.observable = 0.0;  // the peak |I| over the ok points
            for (const IvPoint& p : o.row.sweep) {
              if (p.status == PointStatus::kFailed) continue;
              o.row.observable = std::max(o.row.observable, std::abs(p.current));
            }
          }
        },
        [&] {
          if (!engine) return;
          o.stats += engine->stats();
          o.integrity.merge(engine->integrity_report());
        },
        [&] { return "replica " + std::to_string(r); });
    o.row.ok = out.ok;
    o.row.code = out.code;
    o.row.attempts = out.attempts;
    report_replica(options, cp, /*restored=*/false, r, o);
    return o;
  });
}

}  // namespace

DriverResult run_ensemble(const SimulationInput& input,
                          const DriverOptions& options) {
  const EnsembleSpec& spec = options.ensemble;
  require(spec.enabled, "run_ensemble: ensemble spec is disabled");
  spec.validate();
  const std::uint64_t eff = ensemble_effective_seed(spec, options.seed);
  const std::uint32_t n = spec.replicas;

  std::optional<ParallelExecutor> owned_exec;
  const ParallelExecutor& exec = run_executor(options, owned_exec);
  const std::unique_ptr<RunCheckpoint> cp =
      open_run_checkpoint(input, options, "ensemble", n, n);

  if (options.progress != nullptr) {
    options.progress->on_run_started(n, 0);
    options.progress->on_ensemble_started(n);
  }
  input.circuit.build_caches();

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<ReplicaOutcome> outs =
      run_replicas(input, options, spec, eff, exec, cp.get());

  DriverResult result;
  result.counters.threads = exec.threads();
  result.counters.add_wall_since(t0);

  // Merge in replica-index order on this thread: every statistic below is
  // bitwise independent of the worker count.
  EnsembleResult ens;
  ens.replicas = n;
  ens.seed = eff;
  EnsembleAccumulator band(spec.yield_min, spec.yield_max);
  for (std::size_t r = 0; r < outs.size(); ++r) {
    ReplicaOutcome& o = outs[r];
    result.stats += o.stats;
    result.counters.absorb(o.stats);
    result.integrity.merge(o.integrity);
    result.simulated_time += o.row.sim_time;
    for (UnitFailure& f : o.inner_failures) {
      result.failures.push_back(std::move(f));
    }
    if (!o.row.ok) {
      band.add_failed();
      result.failures.push_back(
          {r, o.row.code, o.row.attempts,
           "replica " + std::to_string(r) +
               " failed:" + error_code_name(o.row.code)});
    } else {
      band.add_ok(o.row.observable);
    }
    ens.rows.push_back(std::move(o.row));
  }
  if (band.n_ok() == 0) {
    throw Error(ens.rows.empty() ? ErrorCode::kUnknown : ens.rows.back().code,
                "run_ensemble: all " + std::to_string(n) +
                    " replicas failed — no observable survives");
  }
  ens.observable_stats = to_band(band);

  if (input.sweep.has_value()) {
    // Cross-replica band per bias point; the top-level sweep table holds the
    // ensemble-mean rows so non-ensemble readers keep working.
    const std::vector<IvPoint>* grid = nullptr;
    for (const ReplicaRow& row : ens.rows) {
      if (row.ok && !row.sweep.empty()) {
        grid = &row.sweep;
        break;
      }
    }
    if (grid != nullptr) {
      const std::size_t np = grid->size();
      std::vector<EnsembleAccumulator> acc(
          np, EnsembleAccumulator(spec.yield_min, spec.yield_max));
      std::vector<std::uint64_t> ev(np, 0);
      for (const ReplicaRow& row : ens.rows) {
        if (!row.ok) {
          for (std::size_t p = 0; p < np; ++p) acc[p].add_failed();
          continue;
        }
        require(row.sweep.size() == np,
                "run_ensemble: replica sweep tables disagree in size");
        for (std::size_t p = 0; p < np; ++p) {
          if (row.sweep[p].status == PointStatus::kFailed) {
            acc[p].add_failed();
          } else {
            acc[p].add_ok(row.sweep[p].current);
          }
          ev[p] += row.sweep[p].events;
        }
      }
      result.sweep.reserve(np);
      ens.sweep_stats.reserve(np);
      for (std::size_t p = 0; p < np; ++p) {
        IvPoint mean_row;
        mean_row.bias = (*grid)[p].bias;
        mean_row.current = acc[p].mean();
        mean_row.stderr_mean =
            acc[p].n_ok() > 1
                ? acc[p].spread() / std::sqrt(static_cast<double>(acc[p].n_ok()))
                : 0.0;
        mean_row.rel_error = mean_row.current != 0.0
                                 ? std::abs(mean_row.stderr_mean /
                                            mean_row.current)
                                 : 0.0;
        mean_row.events = ev[p];
        mean_row.status =
            acc[p].n_ok() > 0 ? PointStatus::kOk : PointStatus::kFailed;
        result.sweep.push_back(mean_row);
        ens.sweep_stats.push_back({mean_row.bias, to_band(acc[p])});
      }
    }
  } else {
    // Top-level current = the cross-replica mean; for a 1-replica ensemble
    // this is the replica's own estimate verbatim.
    CurrentEstimate est;
    est.mean = band.mean();
    const CurrentEstimate* single = nullptr;
    for (const ReplicaRow& row : ens.rows) {
      if (!row.ok) continue;
      est.sim_time += row.current.sim_time;
      est.events += row.current.events;
      single = &row.current;
    }
    est.stderr_mean =
        band.n_ok() > 1
            ? band.spread() / std::sqrt(static_cast<double>(band.n_ok()))
            : single->stderr_mean;
    result.current = est;
  }

  result.events = result.stats.events;
  result.ensemble = std::move(ens);
  return result;
}

}  // namespace semsim
