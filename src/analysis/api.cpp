#include "analysis/api.h"

#include <cmath>
#include <cstdio>

#include "base/random.h"
#include "guard/retry.h"
#include "io/envelope.h"
#include "io/json.h"

namespace semsim {

std::string fingerprint_hex(std::uint64_t fingerprint) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buf;
}

namespace {

void write_solver_stats(JsonWriter& w, const SolverStats& s) {
  w.begin_object();
  w.field("events", s.events);
  w.field("rate_evaluations", s.rate_evaluations);
  w.field("cp_rate_evaluations", s.cp_rate_evaluations);
  w.field("cot_rate_evaluations", s.cot_rate_evaluations);
  w.field("potential_node_updates", s.potential_node_updates);
  w.field("junctions_tested", s.junctions_tested);
  w.field("junctions_flagged", s.junctions_flagged);
  w.field("full_refreshes", s.full_refreshes);
  w.field("source_updates", s.source_updates);
  w.end_object();
}

void write_run_counters(JsonWriter& w, const RunCounters& c, bool canonical) {
  w.begin_object();
  if (!canonical) w.field("threads", c.threads);
  w.field("units", c.units);
  w.field("events", c.events);
  w.field("rate_evaluations", c.rate_evaluations);
  w.field("flags_raised", c.flags_raised);
  w.field("full_refreshes", c.full_refreshes);
  if (!canonical) w.field("wall_seconds", c.wall_seconds);
  w.end_object();
}

void write_band_stats(JsonWriter& w, const EnsembleBandStats& b) {
  w.begin_object();
  w.field("mean_A", b.mean);
  w.field("spread_A", b.spread);
  w.field("min_A", b.min);
  w.field("max_A", b.max);
  w.field("n_ok", unsigned{b.n_ok});
  w.field("yield", b.yield);
  w.end_object();
}

void write_iv_point(JsonWriter& w, const IvPoint& p) {
  w.begin_object();
  w.field("bias_V", p.bias);
  w.field("current_A", p.current);
  w.field("stderr_A", p.stderr_mean);
  w.field("rel_error", p.rel_error);
  w.field("tau_int", p.tau_int);
  w.field("events", p.events);
  w.field("status", point_status_label(p));
  w.field("attempts", p.attempts);
  w.end_object();
}

/// v3 "ensemble" object: the spec echo (io/envelope.h write_spec_object,
/// the writer the envelope encoder uses), per-replica rows, and
/// cross-replica bands.
void write_ensemble(JsonWriter& w, const EnsembleSpec& spec,
                    const EnsembleResult& e) {
  w.key("ensemble").begin_object();
  w.field("replicas", unsigned{e.replicas});
  w.field("seed", e.seed);  // effective (spec.seed or the run seed)

  write_spec_object(w, "spec", spec);

  w.key("replica_rows").begin_array();
  for (const ReplicaRow& r : e.rows) {
    w.begin_object();
    w.field("replica", unsigned{r.replica});
    w.field("status", replica_status_label(r));
    w.field("attempts", unsigned{r.attempts});
    w.field("current_A", r.current.mean);
    w.field("stderr_A", r.current.stderr_mean);
    w.field("observable_A", r.observable);
    w.field("events", r.events);
    w.field("sim_time_s", r.sim_time);
    if (!r.sweep.empty()) {
      w.key("sweep").begin_array();
      for (const IvPoint& p : r.sweep) write_iv_point(w, p);
      w.end_array();
    }
    w.end_object();
  }
  w.end_array();

  w.key("stats");
  write_band_stats(w, e.observable_stats);
  if (!e.sweep_stats.empty()) {
    w.key("sweep_stats").begin_array();
    for (const EnsemblePointStats& p : e.sweep_stats) {
      w.begin_object();
      w.field("bias_V", p.bias);
      w.key("stats");
      write_band_stats(w, p.stats);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
}

}  // namespace

DriverOptions RunRequest::driver_options() const {
  DriverOptions o;
  static_cast<RunOptionsCore&>(o) = static_cast<const RunOptionsCore&>(*this);
  return o;
}

EngineOptions RunRequest::engine_options() const {
  return engine_options_for(input, driver_options());
}

std::uint64_t RunRequest::fingerprint() const {
  return run_fingerprint(input, driver_options());
}

RunResult run(const RunRequest& request) {
  RunResult r;
  r.driver = run_simulation(request.input, request.driver_options());
  r.fingerprint = request.fingerprint();
  r.seed = request.seed;
  r.adaptive = request.adaptive;
  r.fast_rates = request.fast_rates;
  r.threads = request.threads;
  r.ensemble = request.ensemble;
  r.partition = request.partition;
  return r;
}

std::string RunResult::to_json(bool canonical) const {
  JsonWriter w;
  w.begin_object();
  w.field("schema", kJsonSchema);
  w.field("fingerprint", fingerprint_hex(fingerprint));
  w.field("seed", seed);
  w.field("adaptive", adaptive);
  w.field("fast_rates", fast_rates);
  if (!canonical) w.field("threads", threads);
  w.field("events", driver.events);
  w.field("simulated_time_s", driver.simulated_time);

  if (driver.current) {
    w.key("current").begin_object();
    w.field("mean_A", driver.current->mean);
    w.field("stderr_A", driver.current->stderr_mean);
    w.field("sim_time_s", driver.current->sim_time);
    w.field("events", driver.current->events);
    w.end_object();
  }
  if (driver.converged) {
    w.key("convergence").begin_object();
    w.field("rel_error", driver.converged->rel_error);
    w.field("tau_int", driver.converged->tau_int);
    w.field("converged", driver.converged->converged);
    w.field("samples", driver.converged->samples.count());
    w.end_object();
  }
  if (!driver.sweep.empty()) {
    w.key("sweep").begin_array();
    for (const IvPoint& p : driver.sweep) write_iv_point(w, p);
    w.end_array();
  }

  // v2: the integrity layer's audit trail and any degraded work units.
  w.key("integrity").begin_object();
  w.field("audits_run", driver.integrity.audits_run);
  w.field("last_audit_event", driver.integrity.last_audit_event);
  w.key("issues").begin_array();
  for (const IntegrityIssue& issue : driver.integrity.issues) {
    w.begin_object();
    w.field("code", error_code_name(issue.code));
    w.field("at_event", issue.at_event);
    w.field("sim_time_s", issue.sim_time);
    w.field("detail", issue.detail);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("failures").begin_array();
  for (const UnitFailure& f : driver.failures) {
    w.begin_object();
    w.field("unit", f.unit);
    w.field("code", error_code_name(f.code));
    w.field("attempts", f.attempts);
    w.field("message", f.message);
    w.end_object();
  }
  w.end_array();
  w.field("degraded", driver.degraded());

  // v3: present only on ensemble runs; absent == exactly the v2 shape.
  if (driver.ensemble) write_ensemble(w, ensemble, *driver.ensemble);

  // Partition spec echo, written like the ensemble one; present only
  // when the run was partitioned. The effective cluster count of the run
  // is counters.units.
  if (partition.enabled) write_spec_object(w, "partition", partition);

  w.key("stats");
  write_solver_stats(w, driver.stats);
  w.key("counters");
  write_run_counters(w, driver.counters, canonical);
  w.end_object();
  return w.take();
}

EngineOptions engine_options_for(const SimulationInput& input,
                                 const DriverOptions& options) {
  EngineOptions eo;
  eo.temperature = input.temperature;
  eo.cotunneling = input.cotunneling;
  eo.adaptive.enabled = options.adaptive;
  eo.fast_rates = options.fast_rates;
  eo.seed = options.seed;
  eo.audit = options.audit;
  eo.fault = FaultInjector(options.fault_plan, 0, 0);
  return eo;
}

EngineOptions unit_engine_options(const EngineOptions& base,
                                  std::uint64_t base_seed, std::size_t unit,
                                  std::uint32_t attempt) {
  EngineOptions eo = base;
  eo.seed = retry_stream_seed(base_seed, unit, attempt);
  eo.fault = base.fault.for_unit(unit, attempt);
  return eo;
}

}  // namespace semsim
