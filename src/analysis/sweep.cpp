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

/// A work unit's current engine: the caller's engine (single-engine
/// overloads) or a fresh one on the unit's stream (base_seed, unit).
/// rebuild() replaces it with a fresh engine on the unit's next retry
/// stream; the unit's remaining points then run on that one.
class UnitEngine {
 public:
  explicit UnitEngine(Engine& engine)
      : circuit_(engine.circuit()),
        base_(engine.options()),
        base_seed_(base_.seed),
        unit_(base_.fault.unit()),
        eng_(&engine) {}
  UnitEngine(const Circuit& circuit, const EngineOptions& base,
             std::uint64_t base_seed, std::size_t unit,
             std::shared_ptr<const ElectrostaticModel> model)
      : circuit_(circuit),
        base_(base),
        base_seed_(base_seed),
        unit_(unit),
        model_(std::move(model)),
        eng_(&slot_.emplace(circuit, unit_engine_options(base, base_seed, unit),
                            model_)) {}

  Engine* operator->() const noexcept { return eng_; }
  Engine& operator*() const noexcept { return *eng_; }

  void rebuild() {
    eng_ = &slot_.emplace(
        circuit_, unit_engine_options(base_, base_seed_, unit_, ++attempt_),
        model_);
  }

 private:
  const Circuit& circuit_;
  const EngineOptions base_;
  const std::uint64_t base_seed_;
  const std::size_t unit_;
  std::shared_ptr<const ElectrostaticModel> model_;
  std::optional<Engine> slot_;
  Engine* eng_;
  std::uint32_t attempt_ = 0;
};

/// Runs one bias point with fault isolation (guard/retry.h) on `eng`. A
/// failed attempt's engine is harvested into `integrity` /
/// `abandoned_stats` (when non-null; the final engine is the caller's to
/// harvest) and, outside strict mode, rebuilt — for the retry, or for the
/// remaining points of the unit once the point degrades to a
/// `failed:<code>` row with NaN values.
IvPoint run_point_isolated(UnitEngine& eng, const IvSweepConfig& cfg,
                           std::size_t index, double bias,
                           IntegrityReport* integrity,
                           SolverStats* abandoned_stats) {
  throw_if_cancelled(cfg.cancel, "bias point");
  IvPoint p;
  const RetryOutcome out = run_isolated(
      cfg.retry,
      [&](std::uint32_t) {
        eng->set_dc_source(cfg.swept, bias);
        if (cfg.mirror >= 0) eng->set_dc_source(cfg.mirror, -bias);
        eng->rebase_time();  // blockade points can leave t at ~1e17 s
        p = measure_point(*eng, cfg, bias);
      },
      [&] {
        if (integrity != nullptr) integrity->merge(eng->integrity_report());
        if (abandoned_stats != nullptr) *abandoned_stats += eng->stats();
        if (!cfg.retry.strict) eng.rebuild();
      },
      [&] {
        return "bias point " + std::to_string(index) + " (V = " +
               std::to_string(bias) + ")";
      });
  if (!out.ok) {
    p = IvPoint{};
    p.bias = bias;
    p.current = std::numeric_limits<double>::quiet_NaN();
    p.stderr_mean = p.current;
    p.rel_error = p.current;
  }
  p.status = !out.ok             ? PointStatus::kFailed
             : out.attempts > 1 ? PointStatus::kRetried
                                : PointStatus::kOk;
  p.error = out.code;
  p.attempts = out.attempts;
  return p;
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

  // A failed point continues on a locally owned engine on a salted stream;
  // the caller's (warm-started) engine object itself is never reseeded.
  UnitEngine eng(engine);
  const std::vector<double> biases = sweep_points(cfg);
  std::vector<IvPoint> points;
  for (std::size_t i = 0; i < biases.size(); ++i) {
    points.push_back(
        run_point_isolated(eng, cfg, i, biases[i], nullptr, nullptr));
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
  auto model = std::make_shared<const ElectrostaticModel>(circuit, &exec);

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
    UnitEngine eng(circuit, options, par.base_seed, u, model);
    SolverStats acc{};
    for (std::size_t i = begin; i < end; ++i) {
      out[i] = run_point_isolated(eng, cfg, i, points[i], report, &acc);
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
    counters->add_wall_since(t0);
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
/// semantics as run_point_isolated, plus re-applying the row's gate
/// voltage after every engine rebuild.
void run_map_row(UnitEngine& eng, const StabilityMapConfig& cfg,
                 std::size_t g, std::vector<double>& row,
                 std::vector<MapCellStatus>* degraded,
                 IntegrityReport* integrity, SolverStats* abandoned_stats) {
  const double gate = cfg.gate_values[g];
  eng->set_dc_source(cfg.gate_node, gate);
  for (std::size_t b = 0; b < cfg.bias_values.size(); ++b) {
    const double v = cfg.bias_values[b];
    const RetryOutcome out = run_isolated(
        cfg.retry,
        [&](std::uint32_t) {
          eng->set_dc_source(cfg.bias_node, v);
          if (cfg.mirror >= 0) eng->set_dc_source(cfg.mirror, -v);
          eng->rebase_time();
          row[b] = std::fabs(measure_mean_current(*eng, cfg.probes, cfg.measure)
                                 .mean);
        },
        [&] {
          if (integrity != nullptr) integrity->merge(eng->integrity_report());
          if (abandoned_stats != nullptr) *abandoned_stats += eng->stats();
          if (cfg.retry.strict) return;
          eng.rebuild();
          eng->set_dc_source(cfg.gate_node, gate);
        },
        [&] {
          return "stability map cell (gate row " + std::to_string(g) +
                 ", bias column " + std::to_string(b) + ")";
        });
    if (!out.ok) row[b] = std::numeric_limits<double>::quiet_NaN();
    if (degraded != nullptr && (!out.ok || out.attempts > 1)) {
      degraded->push_back(
          {g, b, out.ok ? PointStatus::kRetried : PointStatus::kFailed,
           out.code, out.attempts});
    }
  }
}

}  // namespace

std::vector<std::vector<double>> run_stability_map(
    Engine& engine, const StabilityMapConfig& cfg, StabilityMapReport* report) {
  require(!cfg.probes.empty(), "run_stability_map: no recorded junctions");

  UnitEngine eng(engine);
  std::vector<std::vector<double>> map(
      cfg.gate_values.size(), std::vector<double>(cfg.bias_values.size(), 0.0));
  for (std::size_t g = 0; g < cfg.gate_values.size(); ++g) {
    run_map_row(eng, cfg, g, map[g],
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
  auto model = std::make_shared<const ElectrostaticModel>(circuit, &exec);

  const std::size_t n_rows = cfg.gate_values.size();
  std::vector<std::vector<double>> map(
      n_rows, std::vector<double>(cfg.bias_values.size(), 0.0));
  std::vector<SolverStats> unit_stats(n_rows);
  std::vector<std::vector<MapCellStatus>> row_degraded(
      report != nullptr ? n_rows : 0);
  std::vector<IntegrityReport> row_reports(report != nullptr ? n_rows : 0);
  const auto t0 = std::chrono::steady_clock::now();
  exec.for_each(n_rows, [&](std::size_t g) {
    UnitEngine eng(circuit, options, par.base_seed, g, model);
    SolverStats acc{};
    run_map_row(eng, cfg, g, map[g],
                report != nullptr ? &row_degraded[g] : nullptr,
                report != nullptr ? &row_reports[g] : nullptr, &acc);
    acc += eng->stats();
    if (report != nullptr) row_reports[g].merge(eng->integrity_report());
    unit_stats[g] = acc;
  });
  if (counters != nullptr) {
    counters->threads = exec.threads();
    counters->add_wall_since(t0);
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
