// The ensemble probe of fabric_adaptive's traced run: a variability study
// of the paper's Fig. 1b SET at one conducting bias (+-20 mV, 5 K), 64
// replicas with 0.05 e background-charge and 3 % resistance spread, a fixed
// `jumps` budget, through run(RunRequest) at 4 threads. This shape takes
// the fused lockstep-gang path of analysis/ensemble.cpp. A job is run()
// plus the canonical document; every replica's current is checked against
// the master-equation current of the same materialized device.
//
// It is a probe, not a workload with end-to-end bounds: its tiny circuit
// keeps the rate kernel compute-bound, and the host's speed for such code
// drifts by 15-30 % over minutes (job medians of 60 s windows spread 0.16,
// while the memory-heavy logic workloads stayed within 0.07).
//
// After the jobs it compares the gang with plain engines: the same 64
// materialized replicas advanced by EnsembleEngine::run_events in 4-lane
// gangs, then as plain Engines, each timed on its worker thread.
#include <cmath>
#include <deque>
#include <memory>
#include <optional>

#include "analysis/api.h"
#include "base/random.h"
#include "base/thread_pool.h"
#include "core/ensemble.h"
#include "netlist/electrostatics.h"
#include "workloads.h"

using namespace semsim;

namespace perfbench {
namespace {

constexpr const char* kNetlist =
    "num ext 3\n"
    "num nodes 4\n"
    "junc 1 1 4 1meg 1a\n"
    "junc 2 4 2 1meg 1a\n"
    "cap 3 4 3a\n"
    "vdc 1 0.02\n"
    "vdc 2 -0.02\n"
    "vdc 3 0.0\n"
    "temp 5\n"
    "record 1 2\n"
    "jumps 200000\n";
constexpr std::uint32_t kReplicas = 64;
constexpr std::uint64_t kJobs = 6;
constexpr std::size_t kGang = 4;
/// Lane events of the gang-versus-solo probe.
constexpr std::uint64_t kProbeEvents = 50000;
/// A replica's standard error comes from 8 averaging blocks, so its
/// z = (I_MC - I_ME) / stderr follows Student's t with 7 degrees of freedom
/// (measured: 2.2 % of 6272 replicas beyond |z| = 3, t_7 predicts 2.0 %).
/// Its tails are heavy: |z| > 10 has probability 2.1e-5, about one false
/// failure per 50000 replicas, while |z| > 30 has 1.2e-8. A replica beyond
/// kMaxZ fails the check.
constexpr double kMaxZ = 30.0;
/// The mean z over a job's replicas has standard deviation
/// sqrt(7/5 / 64) = 0.15; a mean beyond kMaxMeanZ is a bias shared by the
/// replicas (a 1 % current error moves it by about 4) and fails the job.
constexpr double kMaxMeanZ = 1.0;

RunRequest make_request(std::uint64_t seed) {
  RunRequest req;
  req.input = parse_simulation_input(kNetlist);
  req.seed = seed;
  req.threads = kThreads;
  req.ensemble.enabled = true;
  req.ensemble.replicas = kReplicas;
  req.ensemble.seed = seed;
  req.ensemble.bg_charge.spread = 0.05;
  req.ensemble.resistance.spread = 0.03;
  return req;
}

struct Probe {
  double ns_per_event = 0.0;
  SolverStats stats;
  double seconds = 0.0;
};

// Advances the request's 64 materialized replicas by kProbeEvents each,
// either in lockstep gangs or as independent engines, one tile of four per
// work unit. Replica r uses the stream run() gives it.
Probe gang_or_solo(const RunRequest& req, bool gang,
                   const ParallelExecutor& exec, Tracer& tracer) {
  const std::uint64_t eff = ensemble_effective_seed(req.ensemble, req.seed);
  const DriverOptions opts = req.driver_options();
  // One shared model, as run() builds it: neither resistance nor background
  // charge enters the electrostatics.
  auto model = std::make_shared<const ElectrostaticModel>(req.input.circuit);
  const std::size_t tiles = kReplicas / kGang;
  const std::vector<Probe> per_tile = exec.map<Probe>(tiles, [&](std::size_t t) {
    std::deque<SimulationInput> inputs;
    std::deque<Engine> engines;
    std::vector<Engine*> lanes;
    for (std::size_t i = 0; i < kGang; ++i) {
      const auto r = static_cast<std::uint32_t>(t * kGang + i);
      inputs.push_back(materialize_replica(req.input, req.ensemble, eff, r));
      inputs.back().circuit.build_caches();
      const EngineOptions eo = engine_options_for(inputs.back(), opts);
      const Scope span(tracer, "ensemble.engine_ctor", t + 1);
      engines.emplace_back(inputs.back().circuit,
                           unit_engine_options(eo, eff, r, 0), model);
      lanes.push_back(&engines.back());
    }
    Probe p;
    const auto t0 = Clock::now();
    if (gang) {
      EnsembleEngine ens(lanes, req.fast_rates);
      const Scope span(tracer, "ensemble.gang_run", t + 1);
      ens.run_events(kProbeEvents);
    } else {
      const Scope span(tracer, "ensemble.solo_run", t + 1);
      for (Engine* e : lanes) e->run_events(kProbeEvents);
    }
    p.seconds = seconds_since(t0);
    for (const Engine* e : lanes) add_stats(p.stats, e->stats());
    return p;
  });
  Probe total;
  for (const Probe& p : per_tile) {
    total.seconds += p.seconds;
    add_stats(total.stats, p.stats);
  }
  total.ns_per_event =
      total.seconds * 1e9 / static_cast<double>(total.stats.events);
  return total;
}

}  // namespace

void probe_ensemble(const Args& args, Tracer& tracer, Report& report) {
  const ParallelExecutor exec(kThreads);
  std::vector<double> errors, doc_bytes;
  for (std::uint64_t j = 0; j < kJobs; ++j) {
    const RunRequest req = make_request(derive_stream_seed(args.seed, j));
    std::optional<RunResult> res;
    std::string doc;
    {
      const Scope span(tracer, "analysis.run", j + 1);
      res.emplace(run(req));
    }
    {
      const Scope span(tracer, "io.to_json", j + 1);
      doc = res->to_json(true);
    }
    doc_bytes.push_back(static_cast<double>(doc.size()));

    const EnsembleResult& ens = *res->driver.ensemble;
    report.check(ens.rows.size() == kReplicas, "replica row count");
    const std::uint64_t eff = ensemble_effective_seed(req.ensemble, req.seed);
    const std::vector<double> me = exec.map<double>(
        ens.rows.size(), [&](std::size_t r) {
          return master_current(materialize_replica(
              req.input, req.ensemble, eff, static_cast<std::uint32_t>(r)));
        });
    double sum_z = 0.0;
    for (std::size_t r = 0; r < ens.rows.size(); ++r) {
      const ReplicaRow& row = ens.rows[r];
      const double z = (row.current.mean - me[r]) / row.current.stderr_mean;
      report.check(row.ok && std::abs(z) <= kMaxZ,
                   format("replica %zu: I_MC %.6e A vs I_ME %.6e A "
                          "(stderr %.3e, z %.2f)",
                          r, row.current.mean, me[r],
                          row.current.stderr_mean, z));
      sum_z += z;
      errors.push_back(100.0 * std::abs(row.current.mean - me[r]) /
                       std::abs(me[r]));
    }
    const double mean_z = sum_z / static_cast<double>(ens.rows.size());
    report.check(std::abs(mean_z) <= kMaxMeanZ,
                 format("ensemble job %llu: mean z over the replicas %.3f",
                        static_cast<unsigned long long>(j), mean_z));
  }
  report.set("analysis.result_err_pct", mean(errors));
  report.set("analysis.run_ms", 1e3 * median(tracer.durations("analysis.run")));
  report.set("io.to_json_ms", 1e3 * median(tracer.durations("io.to_json")));
  report.set("io.doc_kb", median(doc_bytes) / 1024.0);

  const RunRequest req = make_request(args.seed);
  const Probe gang = gang_or_solo(req, true, exec, tracer);
  const Probe solo = gang_or_solo(req, false, exec, tracer);
  report.set("ensemble.gang_ns_per_event", gang.ns_per_event);
  report.set("ensemble.solo_ns_per_event", solo.ns_per_event);
  report.note(format("ensemble probe: %llu jobs x %u replicas, mean "
                     "|I_MC - I_ME| / I_ME = %.4f %% (result_err_pct); gang "
                     "%.1f ns/event vs solo %.1f",
                     static_cast<unsigned long long>(kJobs), kReplicas,
                     mean(errors), gang.ns_per_event, solo.ns_per_event));
}

}  // namespace perfbench
