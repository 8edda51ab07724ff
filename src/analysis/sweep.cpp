#include "analysis/sweep.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>

#include "analysis/api.h"
#include "base/error.h"
#include "base/random.h"

namespace semsim {

namespace {

/// The bias points a sweep config describes: from, from+step, ..., <= to+eps.
std::vector<double> sweep_points(const IvSweepConfig& cfg) {
  std::vector<double> points;
  const double eps = 0.5 * cfg.step;
  for (double v = cfg.from; v <= cfg.to + eps; v += cfg.step) points.push_back(v);
  return points;
}

double wall_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One bias point: fixed-budget estimator, or the convergence-stopped one
/// when the sweep config enables it.
IvPoint measure_point(Engine& engine, const IvSweepConfig& cfg, double bias) {
  IvPoint p;
  p.bias = bias;
  if (cfg.stop.convergence_enabled()) {
    const ConvergedCurrentResult r = measure_current_converged(
        engine, cfg.probes, cfg.measure.warmup_events, cfg.stop);
    p.current = r.estimate.mean;
    p.stderr_mean = r.estimate.stderr_mean;
    p.rel_error = r.rel_error;
    p.tau_int = r.tau_int;
    p.events = r.estimate.events;
  } else {
    const CurrentEstimate est =
        measure_mean_current(engine, cfg.probes, cfg.measure);
    p.current = est.mean;
    p.stderr_mean = est.stderr_mean;
    p.rel_error = est.mean != 0.0 ? est.stderr_mean / std::fabs(est.mean) : 0.0;
    p.events = est.events;
  }
  return p;
}

/// Runs one bias point with fault isolation. `eng` is the unit's current
/// engine; `rebuild(attempt)` must replace it with a fresh one on the retry
/// stream `attempt` and repoint `eng`. Recoverable errors are retried under
/// cfg.retry; an exhausted (or non-retryable) point degrades to a
/// `failed:<code>` row with NaN values on a fresh engine, so the remaining
/// points of the unit still run. In strict mode the first error is rethrown
/// with the bias point prepended to its context chain.
///
/// `integrity` and `abandoned_stats`, when non-null, collect the audit
/// trail and solver work of every engine discarded by a retry (the final
/// engine is the caller's to harvest).
template <typename Rebuild>
IvPoint run_point_isolated(Engine*& eng, const IvSweepConfig& cfg,
                           std::size_t index, double bias,
                           std::uint32_t& stream_attempt, Rebuild&& rebuild,
                           IntegrityReport* integrity,
                           SolverStats* abandoned_stats) {
  throw_if_cancelled(cfg.cancel, "bias point");
  std::uint32_t tried = 0;
  ErrorCode last_code = ErrorCode::kNone;
  for (;;) {
    try {
      eng->set_dc_source(cfg.swept, bias);
      if (cfg.mirror >= 0) eng->set_dc_source(cfg.mirror, -bias);
      eng->rebase_time();  // blockade points can leave t at ~1e17 s
      IvPoint p = measure_point(*eng, cfg, bias);
      p.attempts = tried + 1;
      if (tried > 0) {
        p.status = PointStatus::kRetried;
        p.error = last_code;
      }
      return p;
    } catch (Error& e) {
      ++tried;
      last_code = e.code() == ErrorCode::kNone ? ErrorCode::kUnknown : e.code();
      if (integrity != nullptr) integrity->merge(eng->integrity_report());
      if (abandoned_stats != nullptr) *abandoned_stats += eng->stats();
      if (cfg.retry.should_retry(last_code, tried)) {
        retry_sleep(retry_backoff_seconds(cfg.retry, tried));
        rebuild(++stream_attempt);
        continue;
      }
      if (cfg.retry.strict) {
        e.add_context("bias point " + std::to_string(index) + " (V = " +
                      std::to_string(bias) + ")");
        throw;
      }
      // Degrade: NaN row, fresh engine for the remaining points.
      rebuild(++stream_attempt);
      IvPoint p;
      p.bias = bias;
      p.current = std::numeric_limits<double>::quiet_NaN();
      p.stderr_mean = p.current;
      p.rel_error = p.current;
      p.status = PointStatus::kFailed;
      p.error = last_code;
      p.attempts = tried;
      return p;
    }
  }
}

/// The sweep checkpoint fingerprint covers everything that defines the
/// decomposition and the per-unit RNG streams, mixed with the caller's
/// run identity: resuming under a different sweep shape must be rejected.
std::uint64_t sweep_checkpoint_fingerprint(const IvSweepConfig& cfg,
                                           const ParallelSweepConfig& par,
                                           std::size_t n_points,
                                           std::uint64_t caller_fingerprint) {
  BinaryWriter w;
  w.u64(caller_fingerprint);
  w.u64(n_points);
  w.u64(par.points_per_unit);
  w.u64(par.base_seed);
  w.i64(cfg.swept);
  w.i64(cfg.mirror);
  w.f64(cfg.from);
  w.f64(cfg.to);
  w.f64(cfg.step);
  w.u64(cfg.probes.size());
  for (const CurrentProbe& p : cfg.probes) {
    w.u64(p.junction);
    w.f64(p.sign);
  }
  w.u64(cfg.measure.warmup_events);
  w.u64(cfg.measure.measure_events);
  w.u32(cfg.measure.blocks);
  w.u64(cfg.stop.max_events);
  w.f64(cfg.stop.target_rel_error);
  w.u64(cfg.stop.check_interval);
  return fnv1a64(w.bytes().data(), w.bytes().size());
}

}  // namespace

void encode_iv_point(BinaryWriter& w, const IvPoint& p) {
  w.f64(p.bias);
  w.f64(p.current);
  w.f64(p.stderr_mean);
  w.f64(p.rel_error);
  w.f64(p.tau_int);
  w.u64(p.events);
  w.u8(static_cast<std::uint8_t>(p.status));
  w.u32(static_cast<std::uint32_t>(p.error));
  w.u32(p.attempts);
}

IvPoint decode_iv_point(BinaryReader& r) {
  IvPoint p;
  p.bias = r.f64();
  p.current = r.f64();
  p.stderr_mean = r.f64();
  p.rel_error = r.f64();
  p.tau_int = r.f64();
  p.events = r.u64();
  p.status = static_cast<PointStatus>(r.u8());
  p.error = static_cast<ErrorCode>(r.u32());
  p.attempts = r.u32();
  return p;
}

std::string point_status_label(const IvPoint& p) {
  switch (p.status) {
    case PointStatus::kOk:
      return "ok";
    case PointStatus::kRetried:
      return "retried";
    case PointStatus::kFailed:
      return std::string("failed:") + error_code_name(p.error);
  }
  return "ok";
}

std::vector<IvPoint> run_iv_sweep(Engine& engine, const IvSweepConfig& cfg) {
  require(cfg.step > 0.0, "run_iv_sweep: step must be positive");
  require(cfg.to >= cfg.from, "run_iv_sweep: to < from");
  require(!cfg.probes.empty(), "run_iv_sweep: no recorded junctions");

  // Retry support for the single-engine overload: a failed point replaces
  // the caller's (warm-started) engine with a locally owned one on a salted
  // stream. The caller's engine object itself is never reseeded.
  const EngineOptions base = engine.options();
  std::optional<Engine> spare;
  Engine* eng = &engine;
  std::uint32_t stream_attempt = 0;
  const auto rebuild = [&](std::uint32_t attempt) {
    EngineOptions eo = base;
    eo.seed = retry_stream_seed(base.seed, base.fault.unit(), attempt);
    eo.fault = base.fault.for_attempt(attempt);
    spare.emplace(engine.circuit(), eo);
    eng = &*spare;
  };

  const std::vector<double> biases = sweep_points(cfg);
  std::vector<IvPoint> points;
  for (std::size_t i = 0; i < biases.size(); ++i) {
    points.push_back(run_point_isolated(eng, cfg, i, biases[i], stream_attempt,
                                        rebuild, nullptr, nullptr));
  }
  return points;
}

std::vector<IvPoint> run_iv_sweep(const Circuit& circuit,
                                  const EngineOptions& options,
                                  const IvSweepConfig& cfg,
                                  const ParallelExecutor& exec,
                                  const ParallelSweepConfig& par,
                                  RunCounters* counters,
                                  const CheckpointConfig& ckpt,
                                  IntegrityReport* integrity) {
  require(cfg.step > 0.0, "run_iv_sweep: step must be positive");
  require(cfg.to >= cfg.from, "run_iv_sweep: to < from");
  require(!cfg.probes.empty(), "run_iv_sweep: no recorded junctions");
  require(par.points_per_unit >= 1,
          "run_iv_sweep: points_per_unit must be >= 1");

  const std::vector<double> points = sweep_points(cfg);
  const std::size_t n_units =
      (points.size() + par.points_per_unit - 1) / par.points_per_unit;

  std::unique_ptr<RunCheckpoint> cp;
  if (ckpt.enabled()) {
    cp = std::make_unique<RunCheckpoint>(
        ckpt.path,
        sweep_checkpoint_fingerprint(cfg, par, points.size(), ckpt.fingerprint),
        n_units, ckpt.require_existing, ckpt.salvage);
  }

  // Shared read-only state: one capacitance inversion for all engines, and
  // warm adjacency caches so concurrent engine construction is race-free.
  circuit.build_caches();
  auto model = std::make_shared<const ElectrostaticModel>(circuit);

  std::vector<IvPoint> out(points.size());
  std::vector<SolverStats> unit_stats(n_units);
  std::vector<IntegrityReport> unit_reports(integrity != nullptr ? n_units : 0);
  if (cfg.progress != nullptr) {
    cfg.progress->on_run_started(n_units, points.size());
  }
  const auto t0 = std::chrono::steady_clock::now();
  exec.for_each(n_units, [&](std::size_t u) {
    const std::size_t begin = u * par.points_per_unit;
    const std::size_t end = std::min(points.size(), begin + par.points_per_unit);
    if (cp && cp->has(u)) {
      // Chunk finished in a previous run: restore its points verbatim.
      const std::vector<std::uint8_t> bytes = cp->payload(u);
      BinaryReader r(bytes);
      const std::uint64_t n = r.u64();
      require(n == end - begin, "run_iv_sweep: checkpoint chunk size mismatch");
      for (std::size_t i = begin; i < end; ++i) out[i] = decode_iv_point(r);
      unit_stats[u] = decode_solver_stats(r);
      r.require_done();
      if (cfg.progress != nullptr) {
        cfg.progress->on_sweep_points(begin, &out[begin], end - begin);
      }
      return;
    }
    throw_if_cancelled(cfg.cancel, "sweep chunk");
    IntegrityReport* report = integrity != nullptr ? &unit_reports[u] : nullptr;
    std::optional<Engine> slot;
    slot.emplace(circuit, unit_engine_options(options, par.base_seed, u, 0),
                 model);
    Engine* eng = &*slot;
    std::uint32_t stream_attempt = 0;
    SolverStats acc{};
    const auto rebuild = [&](std::uint32_t attempt) {
      slot.emplace(circuit,
                   unit_engine_options(options, par.base_seed, u, attempt),
                   model);
      eng = &*slot;
    };
    for (std::size_t i = begin; i < end; ++i) {
      out[i] = run_point_isolated(eng, cfg, i, points[i], stream_attempt,
                                  rebuild, report, &acc);
    }
    acc += eng->stats();
    if (report != nullptr) report->merge(eng->integrity_report());
    unit_stats[u] = acc;
    if (cp) {
      BinaryWriter w;
      w.u64(end - begin);
      for (std::size_t i = begin; i < end; ++i) encode_iv_point(w, out[i]);
      encode_solver_stats(w, unit_stats[u]);
      cp->record(u, w.take());
    }
    if (cfg.progress != nullptr) {
      cfg.progress->on_sweep_points(begin, &out[begin], end - begin);
    }
  });
  if (counters != nullptr) {
    counters->threads = exec.threads();
    counters->wall_seconds += wall_seconds_since(t0);
    for (const SolverStats& s : unit_stats) counters->absorb(s);
  }
  if (integrity != nullptr) {
    for (const IntegrityReport& r : unit_reports) integrity->merge(r);
  }
  return out;
}

IvSweepConfig sweep_config_from_input(const SimulationInput& input) {
  require(input.sweep.has_value(),
          "sweep_config_from_input: input has no sweep directive");
  require(!input.record_junctions.empty(),
          "sweep_config_from_input: input has no record directive");
  IvSweepConfig cfg;
  cfg.swept = input.sweep->source;
  cfg.mirror = input.sweep->mirror;
  cfg.from = -input.sweep->max;
  cfg.to = input.sweep->max;
  cfg.step = input.sweep->step;
  for (std::size_t j : input.record_junctions) {
    cfg.probes.push_back(CurrentProbe{j, 1.0});
  }
  if (input.max_jumps > 0) {
    cfg.measure.measure_events = input.max_jumps;
    cfg.measure.warmup_events = std::max<std::uint64_t>(input.max_jumps / 10, 100);
  }
  return cfg;
}

namespace {

/// One gate row of a stability map with per-cell fault isolation; the same
/// retry semantics as run_point_isolated, plus re-applying the row's gate
/// voltage after every engine rebuild.
template <typename Rebuild>
void run_map_row(Engine*& eng, const StabilityMapConfig& cfg, std::size_t g,
                 std::uint32_t& stream_attempt, Rebuild&& rebuild,
                 std::vector<double>& row,
                 std::vector<MapCellStatus>* degraded,
                 IntegrityReport* integrity, SolverStats* abandoned_stats) {
  const double gate = cfg.gate_values[g];
  eng->set_dc_source(cfg.gate_node, gate);
  for (std::size_t b = 0; b < cfg.bias_values.size(); ++b) {
    const double v = cfg.bias_values[b];
    std::uint32_t tried = 0;
    ErrorCode last_code = ErrorCode::kNone;
    for (;;) {
      try {
        eng->set_dc_source(cfg.bias_node, v);
        if (cfg.mirror >= 0) eng->set_dc_source(cfg.mirror, -v);
        eng->rebase_time();
        const CurrentEstimate est =
            measure_mean_current(*eng, cfg.probes, cfg.measure);
        row[b] = std::fabs(est.mean);
        if (tried > 0 && degraded != nullptr) {
          degraded->push_back(
              {g, b, PointStatus::kRetried, last_code, tried + 1});
        }
        break;
      } catch (Error& e) {
        ++tried;
        last_code =
            e.code() == ErrorCode::kNone ? ErrorCode::kUnknown : e.code();
        if (integrity != nullptr) integrity->merge(eng->integrity_report());
        if (abandoned_stats != nullptr)
          *abandoned_stats += eng->stats();
        if (cfg.retry.should_retry(last_code, tried)) {
          retry_sleep(retry_backoff_seconds(cfg.retry, tried));
          rebuild(++stream_attempt);
          eng->set_dc_source(cfg.gate_node, gate);
          continue;
        }
        if (cfg.retry.strict) {
          e.add_context("stability map cell (gate row " + std::to_string(g) +
                        ", bias column " + std::to_string(b) + ")");
          throw;
        }
        rebuild(++stream_attempt);
        eng->set_dc_source(cfg.gate_node, gate);
        row[b] = std::numeric_limits<double>::quiet_NaN();
        if (degraded != nullptr) {
          degraded->push_back({g, b, PointStatus::kFailed, last_code, tried});
        }
        break;
      }
    }
  }
}

}  // namespace

std::vector<std::vector<double>> run_stability_map(
    Engine& engine, const StabilityMapConfig& cfg, StabilityMapReport* report) {
  require(!cfg.probes.empty(), "run_stability_map: no recorded junctions");

  const EngineOptions base = engine.options();
  std::optional<Engine> spare;
  Engine* eng = &engine;
  std::uint32_t stream_attempt = 0;
  const auto rebuild = [&](std::uint32_t attempt) {
    EngineOptions eo = base;
    eo.seed = retry_stream_seed(base.seed, base.fault.unit(), attempt);
    eo.fault = base.fault.for_attempt(attempt);
    spare.emplace(engine.circuit(), eo);
    eng = &*spare;
  };

  std::vector<std::vector<double>> map(
      cfg.gate_values.size(), std::vector<double>(cfg.bias_values.size(), 0.0));
  for (std::size_t g = 0; g < cfg.gate_values.size(); ++g) {
    run_map_row(eng, cfg, g, stream_attempt, rebuild, map[g],
                report != nullptr ? &report->degraded : nullptr,
                report != nullptr ? &report->integrity : nullptr, nullptr);
  }
  if (report != nullptr) report->integrity.merge(eng->integrity_report());
  return map;
}

std::vector<std::vector<double>> run_stability_map(
    const Circuit& circuit, const EngineOptions& options,
    const StabilityMapConfig& cfg, const ParallelExecutor& exec,
    const ParallelSweepConfig& par, RunCounters* counters,
    StabilityMapReport* report) {
  require(!cfg.probes.empty(), "run_stability_map: no recorded junctions");

  circuit.build_caches();
  auto model = std::make_shared<const ElectrostaticModel>(circuit);

  const std::size_t n_rows = cfg.gate_values.size();
  std::vector<std::vector<double>> map(
      n_rows, std::vector<double>(cfg.bias_values.size(), 0.0));
  std::vector<SolverStats> unit_stats(n_rows);
  std::vector<std::vector<MapCellStatus>> row_degraded(
      report != nullptr ? n_rows : 0);
  std::vector<IntegrityReport> row_reports(report != nullptr ? n_rows : 0);
  const auto t0 = std::chrono::steady_clock::now();
  exec.for_each(n_rows, [&](std::size_t g) {
    std::optional<Engine> slot;
    slot.emplace(circuit, unit_engine_options(options, par.base_seed, g, 0),
                 model);
    Engine* eng = &*slot;
    std::uint32_t stream_attempt = 0;
    SolverStats acc{};
    const auto rebuild = [&](std::uint32_t attempt) {
      slot.emplace(circuit,
                   unit_engine_options(options, par.base_seed, g, attempt),
                   model);
      eng = &*slot;
    };
    run_map_row(eng, cfg, g, stream_attempt, rebuild, map[g],
                report != nullptr ? &row_degraded[g] : nullptr,
                report != nullptr ? &row_reports[g] : nullptr, &acc);
    acc += eng->stats();
    if (report != nullptr) row_reports[g].merge(eng->integrity_report());
    unit_stats[g] = acc;
  });
  if (counters != nullptr) {
    counters->threads = exec.threads();
    counters->wall_seconds += wall_seconds_since(t0);
    for (const SolverStats& s : unit_stats) counters->absorb(s);
  }
  if (report != nullptr) {
    // Merge in row order so the report is thread-count independent.
    for (std::size_t g = 0; g < n_rows; ++g) {
      report->degraded.insert(report->degraded.end(), row_degraded[g].begin(),
                              row_degraded[g].end());
      report->integrity.merge(row_reports[g]);
    }
  }
  return map;
}

}  // namespace semsim
