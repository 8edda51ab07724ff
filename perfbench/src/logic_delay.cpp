// logic_delay — the paper's Fig. 7 job on c432: build the benchmark,
// elaborate it, build one electrostatic model, then measure the
// propagation delay with the adaptive solver on 8 seeds at once on a
// 4-thread executor. A job is one 8-seed delay experiment; the slowest
// seed sets its time.
//
// Accuracy is judged against a non-adaptive mean delay over fixed seeds,
// computed once with `perfbench --make-reference logic_delay` and stored in
// perfbench/reference.json.
//
// The traced run replays every job seed by seed (Engine constructor,
// set_electron_counts, then measure_propagation_delay under spans) right
// after the untraced library call on the same seeds, once with tracing off
// and once with it on; both replays must agree with the library job bit for
// bit, and the time difference between the two replays is the tracing
// overhead.
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "analysis/delay.h"
#include "base/random.h"
#include "base/thread_pool.h"
#include "io/json.h"
#include "logic/benchmarks.h"
#include "logic/elaborate.h"
#include "logic/testbench.h"
#include "netlist/electrostatics.h"
#include "workloads.h"

using namespace semsim;

namespace perfbench {
namespace {

constexpr const char* kBenchmark = "c432";
constexpr std::size_t kSeedsPerJob = 8;
/// Base seed and seed count of the stored non-adaptive reference delays.
constexpr std::uint64_t kReferenceSeed = 8900;
constexpr std::size_t kReferenceSeeds = 96;
/// The set-up is rebuilt before every kJobsPerSetup-th job, so set-ups are
/// spread over the run like the jobs; setup_s is their median.
constexpr std::uint64_t kJobsPerSetup = 2;
constexpr std::uint64_t kMinJobs = 6;

struct Setup {
  std::unique_ptr<LogicBenchmark> bench;
  std::unique_ptr<ElaboratedCircuit> elab;
  std::shared_ptr<const ElectrostaticModel> model;
};

Setup build(Tracer& tracer) {
  Setup s;
  {
    const Scope span(tracer, "logic.elaborate");
    s.bench = std::make_unique<LogicBenchmark>(make_benchmark(kBenchmark));
    s.elab = std::make_unique<ElaboratedCircuit>(
        elaborate(s.bench->netlist, SetLogicParams{}));
  }
  const Scope span(tracer, "netlist.model");
  s.model = std::make_shared<const ElectrostaticModel>(s.elab->circuit());
  return s;
}

DelayRunConfig job_config(bool adaptive) {
  DelayRunConfig cfg;
  cfg.engine.adaptive.enabled = adaptive;
  return cfg;
}

// The crossing detector run_delay_experiment_seeds derives internally:
// observe the benchmark output at half supply, in the direction the
// functional model predicts for the toggled vector.
DelayConfig detector(const Setup& s, const DelayRunConfig& cfg) {
  const LogicBenchmark& b = *s.bench;
  std::vector<bool> after = b.base_vector;
  after[b.toggle_input] = !after[b.toggle_input];
  const SignalId out = b.netlist.outputs()[b.observe_output];
  DelayConfig dc;
  dc.output = s.elab->node(out);
  dc.t_step = cfg.t_settle;
  dc.v_threshold = 0.5 * s.elab->builder.params().vdd;
  dc.rising = b.netlist.evaluate(after)[static_cast<std::size_t>(out)];
  dc.smoothing_tau = cfg.smoothing_tau;
  dc.t_max = cfg.t_settle + cfg.t_max_after;
  return dc;
}

struct SeedRun {
  double delay = 0.0;
  SolverStats stats;
};

// One job seed by seed under spans. Requires the inputs programmed by a
// preceding run_delay_experiment_seeds call on the same elaborated circuit.
std::vector<SeedRun> traced_job(const Setup& s, std::uint64_t job_seed,
                                std::uint64_t request,
                                const ParallelExecutor& exec, Tracer& tracer) {
  const DelayRunConfig cfg = job_config(true);
  const DelayConfig dc = detector(s, cfg);
  const auto preseed = dc_preseed(*s.bench, *s.elab, s.bench->base_vector);
  const Scope job(tracer, "analysis.delay_job", request);
  return exec.map<SeedRun>(kSeedsPerJob, [&](std::size_t k) {
    EngineOptions opt = cfg.engine;
    opt.temperature = s.elab->builder.params().temperature;
    opt.seed = derive_stream_seed(job_seed, k);
    std::optional<Engine> engine;
    {
      const Scope span(tracer, "core.engine_ctor", request, job.id());
      engine.emplace(s.elab->circuit(), opt, s.model);
      engine->set_electron_counts(preseed);
    }
    SeedRun out;
    {
      const Scope span(tracer, "core.step", request, job.id());
      out.delay = measure_propagation_delay(*engine, dc);
    }
    out.stats = engine->stats();
    return out;
  });
}

double load_reference_delay() {
  const JsonValue doc =
      JsonValue::parse(read_text_file("perfbench/reference.json"));
  const JsonValue& ref = doc.at("logic_delay");
  require_text(ref.at("benchmark").as_string() == kBenchmark,
               "reference.json is not for " + std::string(kBenchmark));
  return ref.at("mean_delay_s").as_number();
}

}  // namespace

void run_logic_delay(const Args& args, Tracer& tracer, Report& report) {
  const double reference = load_reference_delay();
  const ParallelExecutor exec(kThreads);
  Tracer off(false);

  const DelayRunConfig cfg = job_config(true);
  std::vector<double> setup_plain, setup_traced;
  std::vector<double> job_s, job_rate, replay_plain_s, replay_traced_s, delays;
  SolverStats traced_stats;
  Setup s;
  const auto loop0 = Clock::now();
  for (std::uint64_t j = 0; seconds_since(loop0) < args.seconds || j < kMinJobs;
       ++j) {
    if (j % kJobsPerSetup == 0) {
      // The traced run times a traced set-up after each untraced one.
      for (Tracer* t : modes(off, tracer)) {
        s = Setup{};  // free the previous model before timing the next
        const auto t0 = Clock::now();
        s = build(*t);
        (t == &off ? setup_plain : setup_traced).push_back(seconds_since(t0));
      }
    }
    const std::uint64_t job_seed = derive_stream_seed(args.seed, j);
    const auto t0 = Clock::now();
    const MultiSeedDelayResult r = run_delay_experiment_seeds(
        *s.bench, *s.elab, s.model, cfg, job_seed, kSeedsPerJob, exec);
    job_s.push_back(seconds_since(t0));
    job_rate.push_back(static_cast<double>(r.counters.events) / job_s.back());
    for (const double d : r.delays) {
      report.check(std::isfinite(d) && d > 0.0,
                   format("job %llu: seed without a finite delay",
                          static_cast<unsigned long long>(j)));
      if (std::isfinite(d)) delays.push_back(d);
    }
    if (!tracer.enabled()) continue;

    for (Tracer* t : modes(off, tracer)) {
      const auto t1 = Clock::now();
      const std::vector<SeedRun> replay =
          traced_job(s, job_seed, j + 1, exec, *t);
      (t == &off ? replay_plain_s : replay_traced_s)
          .push_back(seconds_since(t1));
      for (std::size_t k = 0; k < replay.size(); ++k) {
        const double want = r.delays[k];
        report.check(replay[k].delay == want ||
                         (std::isnan(want) && std::isnan(replay[k].delay)),
                     "seed replay differs from the library job");
        if (t == &tracer) add_stats(traced_stats, replay[k].stats);
      }
    }
  }

  const double mean_delay = mean(delays);
  const double err_pct = 100.0 * std::abs(mean_delay - reference) / reference;
  report.set("setup_s", median(setup_plain));
  report.set("run_s", median(job_s));
  report.set("events_per_s", median(job_rate));
  report.set("peak_rss_mb", peak_rss_mib());
  report.note(format("c432: %zu jobs x %zu seeds, mean delay %.6e s vs "
                     "non-adaptive reference %.6e s -> result_err_pct %.4f",
                     job_s.size(), kSeedsPerJob, mean_delay, reference,
                     err_pct));

  if (!tracer.enabled()) return;
  report_model_layers(*s.model, tracer, report);
  report.set("analysis.result_err_pct", err_pct);
  report.set("analysis.run_ms", 1e3 * median(job_s));
  report.set("logic.elaborate_s", median(tracer.durations("logic.elaborate")));
  report.set("core.engine_ctor_ms",
             1e3 * median(tracer.durations("core.engine_ctor")));
  report.set("core.ns_per_event", tracer.total("core.step") * 1e9 /
                                     static_cast<double>(traced_stats.events));
  report_core_layers(traced_stats, tracer.total("core.step"), report);
  report_overhead(setup_plain, setup_traced, replay_plain_s, replay_traced_s,
                  report);
}

void make_logic_delay_reference() {
  const std::size_t seeds = kReferenceSeeds;
  Tracer off(false);
  Setup s = build(off);
  const ParallelExecutor exec(kThreads);
  const MultiSeedDelayResult r =
      run_delay_experiment_seeds(*s.bench, *s.elab, s.model, job_config(false),
                                 kReferenceSeed, seeds, exec);
  require_text(r.valid == seeds, "reference: a seed gave no finite delay");
  double var = 0.0;
  std::string list;
  for (const double d : r.delays) {
    var += (d - r.mean_delay) * (d - r.mean_delay);
    list += format("%s%.17g", list.empty() ? "" : ", ", d);
  }
  const double n = static_cast<double>(seeds);
  std::printf(
      "{\"logic_delay\": {\"benchmark\": \"%s\", \"solver\": "
      "\"non-adaptive\", \"base_seed\": %llu, \"seeds\": %zu, "
      "\"mean_delay_s\": %.17g, \"stderr_s\": %.17g, \"events\": %llu, "
      "\"wall_s\": %.3f, \"command\": \"perfbench --make-reference "
      "logic_delay\", \"delays_s\": [%s]}}\n",
      kBenchmark, static_cast<unsigned long long>(kReferenceSeed), seeds,
      r.mean_delay, std::sqrt(var / (n - 1.0) / n),
      static_cast<unsigned long long>(r.counters.events),
      r.counters.wall_seconds, list.c_str());
}

}  // namespace perfbench
