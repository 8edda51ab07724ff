// The benchmark workloads and the probes their traced runs add. Each
// workload builds its inputs from args.seed, times its calls into the
// library, checks every output, and fills the report with the end-to-end
// metrics (always) and, when args.trace is set, the per-layer metrics of
// the layers it exercises.
#pragma once

#include "common.h"

#include "core/options.h"

namespace semsim {
class ElectrostaticModel;
struct SimulationInput;
}  // namespace semsim

namespace perfbench {

struct Fabric;

void run_logic_delay(const Args& args, Tracer& tracer, Report& report);
/// Prints the logic_delay accuracy reference (non-adaptive mean delay over
/// fixed seeds) as the JSON stored in perfbench/reference.json.
void make_logic_delay_reference();
void run_fabric_adaptive(const Args& args, Tracer& tracer, Report& report);

/// partition.* metrics: PartitionedEngine on the fabric `f` against a solo
/// engine (partition_probe.cpp; part of fabric_adaptive's traced run).
void probe_partition(const Args& args, const Fabric& f, Tracer& tracer,
                     Report& report);
/// ensemble.*, io.*, analysis.run_ms and analysis.result_err_pct: a
/// 64-replica SET variability study through run() on the fused gang path,
/// checked against the master equation, then gang against solo engines
/// (ensemble_probe.cpp; part of fabric_adaptive's traced run).
void probe_ensemble(const Args& args, Tracer& tracer, Report& report);
/// serve.* metrics: the semsim_serve daemon under two closed-loop clients
/// (serve_probe.cpp; part of logic_delay's traced run).
void probe_serve(const Args& args, Tracer& tracer, Report& report);

/// Per-layer probes of the electrostatic setup shared by every workload:
/// netlist.model_s (median of the given model constructions), a separate
/// CholeskyDecomposition of model.c_ii() and its inverse() under
/// linalg.factor / linalg.inverse spans, and the dense kappa size and fill.
void report_model_layers(const semsim::ElectrostaticModel& model,
                         Tracer& tracer, Report& report);

/// core.* ratios from solver counters, and core.ns_per_rate_eval from the
/// host time [s] spent in the stepping calls that produced them.
void report_core_layers(const semsim::SolverStats& stats, double step_seconds,
                        Report& report);

/// Adds every counter of `s` to `into`.
void add_stats(semsim::SolverStats& into, const semsim::SolverStats& s);

/// Mean stationary current [A] through the input's recorded junctions from
/// the master-equation solver (src/master), the exact reference of the
/// Monte-Carlo estimate for small circuits.
double master_current(const semsim::SimulationInput& input);

/// trace.*_overhead_s: traced minus untraced medians of the same operation.
void report_overhead(const std::vector<double>& untraced_setup,
                     const std::vector<double>& traced_setup,
                     const std::vector<double>& untraced_run,
                     const std::vector<double>& traced_run, Report& report);

}  // namespace perfbench
