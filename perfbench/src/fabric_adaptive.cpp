// fabric_adaptive — the fabric of fabric.h (four weakly coupled 512-junction
// random-logic blocks) under the adaptive solver. The set-up generates and
// elaborates the fabric and builds its electrostatic model, most of it the
// inverse of the island capacitance matrix. A job runs kEnginesPerJob solo
// adaptive Engines on a 4-thread executor, each on its own stream from
// t = 0 through about four pulse periods; the slowest engine sets its
// time. Every engine's block outputs must follow their input pulses.
//
// The traced run repeats every set-up and job with tracing on (Engine
// constructor and stepping under spans) and adds the partition probe on
// the last fabric built.
#include <algorithm>
#include <cmath>
#include <optional>

#include "base/random.h"
#include "base/thread_pool.h"
#include "core/engine.h"
#include "fabric.h"
#include "workloads.h"

using namespace semsim;

namespace perfbench {
namespace {

constexpr std::size_t kEnginesPerJob = 4;
/// Pulse periods over which each block's output swings are counted, after
/// one settling period.
constexpr std::uint64_t kCheckedPeriods = 1;
/// The set-up is rebuilt before every kJobsPerSetup-th job, so set-ups are
/// spread over the run like the jobs; setup_s is their median.
constexpr std::uint64_t kJobsPerSetup = 3;
constexpr std::uint64_t kMinJobs = 3;

/// Block b's input edges fall at b P/4 + k P/2, and its output follows
/// about 170 ns later; 70 ns after an input edge the output wire is half
/// way between two transitions. Block b's swings are counted from that
/// point in the second period for kCheckedPeriods periods, so no transition
/// straddles the ends of the count.
double block_mark(std::size_t b) {
  return kPulsePeriod + static_cast<double>(b) * kPulsePeriod / kFabricBlocks +
         70e-9;
}

struct EngineRun {
  std::vector<std::vector<double>> flow0, flow1;
  SolverStats stats;
};

std::vector<EngineRun> run_job(const Fabric& f, std::uint64_t job_seed,
                               std::uint64_t request,
                               const ParallelExecutor& exec, Tracer& tracer) {
  return exec.map<EngineRun>(kEnginesPerJob, [&](std::size_t k) {
    std::optional<Engine> engine;
    {
      const Scope span(tracer, "core.engine_ctor", request);
      engine.emplace(f.elab->circuit(),
                     fabric_options(derive_stream_seed(job_seed, k)), f.model);
    }
    const auto transferred = [&](std::size_t j) {
      return engine->junction_transferred_e(j);
    };
    EngineRun out;
    out.flow0.resize(kFabricBlocks);
    out.flow1.resize(kFabricBlocks);
    {
      const Scope span(tracer, "core.step", request);
      for (const std::uint64_t p : {std::uint64_t{0}, kCheckedPeriods}) {
        for (std::size_t b = 0; b < kFabricBlocks; ++b) {
          engine->run_until(block_mark(b) + p * kPulsePeriod);
          (p == 0 ? out.flow0 : out.flow1)[b] =
              output_transfers(f, transferred)[b];
        }
      }
    }
    out.stats = engine->stats();
    return out;
  });
}

}  // namespace

void run_fabric_adaptive(const Args& args, Tracer& tracer, Report& report) {
  const ParallelExecutor exec(kThreads);
  Tracer off(false);

  std::vector<double> setup_plain, setup_traced, job_s, job_traced_s;
  std::vector<double> job_rate;  // events per second of each untraced job
  SolverStats traced_stats;
  double swing_lo = INFINITY, swing_hi = -INFINITY;
  std::optional<Fabric> f;
  const auto loop0 = Clock::now();
  for (std::uint64_t j = 0; seconds_since(loop0) < args.seconds || j < kMinJobs;
       ++j) {
    if (j % kJobsPerSetup == 0) {
      // The traced run times a traced set-up after each untraced one.
      for (Tracer* t : modes(off, tracer)) {
        f.reset();  // free the previous model before timing the next
        const auto t0 = Clock::now();
        f.emplace(build_fabric(*t));
        (t == &off ? setup_plain : setup_traced).push_back(seconds_since(t0));
      }
    }
    const std::uint64_t job_seed = derive_stream_seed(args.seed, j);
    for (Tracer* t : modes(off, tracer)) {
      const auto t0 = Clock::now();
      const std::vector<EngineRun> runs = run_job(*f, job_seed, j + 1, exec, *t);
      const double took = seconds_since(t0);
      (t == &off ? job_s : job_traced_s).push_back(took);
      std::uint64_t events = 0;
      for (std::size_t k = 0; k < runs.size(); ++k) {
        events += runs[k].stats.events;
        if (t != &off) add_stats(traced_stats, runs[k].stats);
        const auto [lo, hi] = check_swings(
            *f, runs[k].flow0, runs[k].flow1, kCheckedPeriods,
            format("job %llu, engine %zu", static_cast<unsigned long long>(j),
                   k),
            report);
        swing_lo = std::min(swing_lo, lo);
        swing_hi = std::max(swing_hi, hi);
      }
      if (t == &off) job_rate.push_back(static_cast<double>(events) / took);
    }
  }

  report.set("setup_s", median(setup_plain));
  report.set("run_s", median(job_s));
  report.set("events_per_s", median(job_rate));
  report.set("peak_rss_mb", peak_rss_mib());
  report.note(format("fabric: %zu set-ups, %zu jobs x %zu engines, output "
                     "swings %.3f-%.3f per input pulse",
                     setup_plain.size(), job_s.size(), kEnginesPerJob,
                     swing_lo, swing_hi));

  if (!tracer.enabled()) return;
  report_model_layers(*f->model, tracer, report);
  report.set("logic.elaborate_s", median(tracer.durations("logic.elaborate")));
  report.set("core.engine_ctor_ms",
             1e3 * median(tracer.durations("core.engine_ctor")));
  report.set("core.ns_per_event", tracer.total("core.step") * 1e9 /
                                     static_cast<double>(traced_stats.events));
  report_core_layers(traced_stats, tracer.total("core.step"), report);
  report_overhead(setup_plain, setup_traced, job_s, job_traced_s, report);
  probe_partition(args, *f, tracer, report);
}

}  // namespace perfbench
