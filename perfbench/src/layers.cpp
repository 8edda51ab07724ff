// Per-layer metrics shared by several workloads.
#include <cmath>
#include <optional>

#include "core/options.h"
#include "linalg/cholesky.h"
#include "master/master_equation.h"
#include "netlist/electrostatics.h"
#include "netlist/parser.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Monte-Carlo rate evaluations of every channel kind.
std::uint64_t rate_evaluations(const semsim::SolverStats& s) {
  return s.rate_evaluations + s.cp_rate_evaluations + s.cot_rate_evaluations;
}

}  // namespace

void report_model_layers(const semsim::ElectrostaticModel& model,
                         Tracer& tracer, Report& report) {
  report.set("netlist.model_s", median(tracer.durations("netlist.model")));
  {
    std::optional<semsim::CholeskyDecomposition> factor;
    {
      const Scope s(tracer, "linalg.factor");
      factor.emplace(model.c_ii());
    }
    const Scope s(tracer, "linalg.inverse");
    const semsim::Matrix inv = factor->inverse();
    report.check(inv.rows() == model.island_count(), "linalg inverse shape");
  }
  report.set("linalg.factor_s", median(tracer.durations("linalg.factor")));
  report.set("linalg.inverse_s", median(tracer.durations("linalg.inverse")));

  const std::size_t n = model.island_count();
  const semsim::Matrix& kappa = model.kappa();
  std::size_t nonzero = 0;
  for (std::size_t r = 0; r < n; ++r) {
    const double* row = kappa.row_data(r);
    for (std::size_t c = 0; c < n; ++c) nonzero += row[c] != 0.0;
  }
  const double cells = static_cast<double>(n) * static_cast<double>(n);
  report.set("netlist.kappa_mb", cells * sizeof(double) / (1024.0 * 1024.0));
  report.set("netlist.kappa_nonzero_frac",
             static_cast<double>(nonzero) / cells);
}

void add_stats(semsim::SolverStats& into, const semsim::SolverStats& s) {
  into.events += s.events;
  into.rate_evaluations += s.rate_evaluations;
  into.cp_rate_evaluations += s.cp_rate_evaluations;
  into.cot_rate_evaluations += s.cot_rate_evaluations;
  into.potential_node_updates += s.potential_node_updates;
  into.junctions_tested += s.junctions_tested;
  into.junctions_flagged += s.junctions_flagged;
  into.full_refreshes += s.full_refreshes;
  into.source_updates += s.source_updates;
}

double master_current(const semsim::SimulationInput& input) {
  semsim::EngineOptions opt;
  opt.temperature = input.temperature;
  const semsim::MasterEquationSolver me(input.circuit, opt);
  double sum_i = 0.0;
  for (const std::size_t j : input.record_junctions) {
    sum_i += me.junction_current(j);
  }
  return sum_i / static_cast<double>(input.record_junctions.size());
}

void report_core_layers(const semsim::SolverStats& s, double step_seconds,
                        Report& report) {
  const double events = static_cast<double>(s.events);
  const double evals = static_cast<double>(rate_evaluations(s));
  report.set("core.ns_per_rate_eval", step_seconds * 1e9 / evals);
  report.set("core.rate_evals_per_event", evals / events);
  report.set("core.flagged_frac",
             s.junctions_tested > 0
                 ? static_cast<double>(s.junctions_flagged) /
                       static_cast<double>(s.junctions_tested)
                 : 0.0);
  report.set("core.potential_updates_per_event",
             static_cast<double>(s.potential_node_updates) / events);
  report.set("core.refreshes_per_mevent",
             static_cast<double>(s.full_refreshes) * 1e6 / events);
}

void report_overhead(const std::vector<double>& untraced_setup,
                     const std::vector<double>& traced_setup,
                     const std::vector<double>& untraced_run,
                     const std::vector<double>& traced_run, Report& report) {
  const double setup = median(traced_setup) - median(untraced_setup);
  const double run = median(traced_run) - median(untraced_run);
  report.set("trace.setup_overhead_s", setup);
  report.set("trace.run_overhead_s", run);
  report.note(format("tracing overhead: setup %+.6f s (untraced %.6f s), "
                     "run %+.6f s (untraced %.6f s)",
                     setup, median(untraced_setup), run,
                     median(untraced_run)));
}

}  // namespace perfbench
