// The partition probe of fabric_adaptive's traced run: the fabric of
// fabric.h run by PartitionedEngine with 4 clusters on a 4-thread executor
// under the adaptive solver, then by a solo adaptive Engine over the same
// simulated span, the reference the partitioned rate is judged against.
//
// It is a probe, not a workload with end-to-end bounds: its wall time
// follows the host's steal time (a 4-thread barrier every ~1 ms of host
// time), and in 10-seed runs its spread reached 0.4 while the host was
// busy.
//
// Checks: every window's charge audits run without a violation, and every
// block's chain output carries one full charge and discharge per input
// pulse (the electrons through the two junctions that charge and discharge
// the output wire).
#include <optional>

#include "base/thread_pool.h"
#include "core/partition.h"
#include "fabric.h"
#include "workloads.h"

using namespace semsim;

namespace perfbench {
namespace {

/// A job advances a quarter period, which holds exactly one input edge of
/// one block (the pulse trains are staggered by P/4).
constexpr std::uint64_t kJobsPerPeriod = 4;
/// One settling period plus three checked ones: over three periods a
/// transition that lands on the other side of the window edge moves the
/// swing count by a sixth at most.
constexpr std::uint64_t kJobs = 4 * kJobsPerPeriod;

/// Advances `engine` to simulated time `t_end`; returns the windows run.
std::uint64_t advance_to(PartitionedEngine& engine, double t_end,
                         std::uint64_t request, Tracer& tracer) {
  std::uint64_t windows = 0;
  while (engine.time() < t_end) {
    const Scope span(tracer, "partition.window", request);
    engine.advance_window(256);
    ++windows;
  }
  return windows;
}

}  // namespace

void probe_partition(const Args& args, const Fabric& f, Tracer& tracer,
                     Report& report) {
  const ParallelExecutor exec(kThreads);
  std::optional<PartitionedEngine> engine;
  {
    const Scope span(tracer, "partition.ctor");
    PartitionSpec spec;
    spec.enabled = true;
    spec.clusters = kFabricBlocks;
    engine.emplace(f.elab->circuit(), *f.model, fabric_options(args.seed),
                   spec, &exec);
  }
  report.check(engine->clusters() == kFabricBlocks,
               "planner did not split the fabric into one cluster per block");
  const auto transferred = [&](std::size_t j) {
    return engine->junction_transferred_e(j);
  };

  const double span_s = kPulsePeriod / kJobsPerPeriod;
  std::uint64_t windows = 0;
  std::vector<std::vector<double>> flow0;
  const auto t0 = Clock::now();
  for (std::uint64_t j = 0; j < kJobs; ++j) {
    // The first pulse period settles the fabric from its neutral start.
    if (j == kJobsPerPeriod) flow0 = output_transfers(f, transferred);
    windows += advance_to(*engine, static_cast<double>(j + 1) * span_s,
                          j + 1, tracer);
    const IntegrityReport audit = engine->merged_integrity();
    report.check(audit.audits_run > 0 && audit.ok(),
                 format("fabric job %llu: charge audit",
                        static_cast<unsigned long long>(j)));
  }
  const double run_s = seconds_since(t0);
  const auto [lo, hi] = check_swings(
      f, flow0, output_transfers(f, transferred),
      engine->time() / kPulsePeriod - 1.0, "partitioned fabric", report);

  const std::uint64_t events = engine->total_events();
  report.set("partition.ctor_s", median(tracer.durations("partition.ctor")));
  report.set("partition.window_us",
             1e6 * mean(tracer.durations("partition.window")));
  report.set("partition.events_per_window",
             static_cast<double>(events) / static_cast<double>(windows));

  // Solo adaptive reference over the same fabric and simulated span.
  Engine solo(f.elab->circuit(), fabric_options(args.seed), f.model);
  {
    const Scope span(tracer, "partition.solo_run");
    solo.run_until(engine->time());
  }
  const double solo_rate = static_cast<double>(solo.event_count()) /
                           tracer.total("partition.solo_run");
  report.set("partition.solo_events_per_s", solo_rate);
  report.note(format(
      "partition probe: %llu jobs of %.0f ns in %.3f s, output swings "
      "%.3f-%.3f per pulse, %.0f events/s partitioned vs %.0f solo adaptive",
      static_cast<unsigned long long>(kJobs), span_s * 1e9, run_s, lo, hi,
      static_cast<double>(events) / run_s, solo_rate));
}

}  // namespace perfbench
