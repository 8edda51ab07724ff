// semsim — command-line front end, the shape the paper describes:
// "Circuit information is passed to SEMSIM via an input file containing all
// the necessary information ... the results are stored in a file."
//
//   semsim <input-file> [--seed N] [--threads N] [--repeats N]
//          [--non-adaptive] [--out FILE.tsv] [--json FILE.json]
//          [--master-check] [--target-rel-error X] [--max-events N]
//          [--checkpoint FILE] [--resume FILE]
//
// Runs the Monte-Carlo simulation an input file requests (see
// src/netlist/parser.h for the grammar) and prints/writes the results. The
// CLI is a thin wrapper over the RunRequest -> run() -> RunResult facade
// (analysis/api.h); --json writes the versioned RunResult::to_json()
// document. --master-check additionally solves the steady-state master
// equation and prints its currents next to the Monte-Carlo values (small
// circuits only). Every value flag accepts both `--flag VALUE` and
// `--flag=VALUE`.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <new>
#include <optional>
#include <string>

#include "analysis/api.h"
#include "guard/exit_codes.h"
#include "io/table_writer.h"
#include "master/master_equation.h"

#include "flags.h"

using namespace semsim;

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s <input-file> [--seed N] [--threads N] [--repeats N]\n"
      "          [--non-adaptive] [--out FILE.tsv] [--json FILE.json]\n"
      "          [--master-check] [--target-rel-error X] [--max-events N]\n"
      "          [--checkpoint FILE] [--resume FILE] [--salvage-checkpoint]\n"
      "          [--strict] [--retries N] [--audit-interval N] [--no-audit]\n"
      "          [--watchdog-seconds X] [--fast-rates]\n"
      "          [--ensemble N] [--ensemble-seed N]\n"
      "          [--ensemble-bg-spread X] [--ensemble-bg-dist D]\n"
      "          [--ensemble-r-spread X] [--ensemble-r-dist D]\n"
      "          [--ensemble-c-spread X] [--ensemble-c-dist D]\n"
      "          [--ensemble-t-spread X] [--ensemble-t-dist D]\n"
      "          [--ensemble-yield-min X] [--ensemble-yield-max X]\n"
      "          [--partitions N] [--partition-window X]\n"
      "          [--partition-threshold X]\n"
      "  --json FILE.json     write the versioned machine-readable result\n"
      "                       document (schema %s)\n"
      "  --canonical-json FILE  like --json, but omit the execution-\n"
      "                       environment fields (threads, wall time): the\n"
      "                       document is then a pure function of the run\n"
      "                       fingerprint — byte-identical at any thread\n"
      "                       count, and byte-identical to what the service\n"
      "                       daemon (semsim_serve) stores and serves\n"
      "  --threads N          worker threads for sweeps / repeated runs\n"
      "                       (0 = all cores); results are identical for\n"
      "                       every N\n"
      "  --repeats N          override the input file's `jumps` repeat count\n"
      "  --target-rel-error X run each measurement until its binned relative\n"
      "                       error (autocorrelation-aware) drops below X\n"
      "  --max-events N       hard per-measurement event cap for\n"
      "                       --target-rel-error\n"
      "  --checkpoint FILE    record completed work units to FILE (crash\n"
      "                       safe; an existing matching file is resumed)\n"
      "  --resume FILE        like --checkpoint, but FILE must exist\n"
      "  --salvage-checkpoint keep the valid record prefix of a damaged\n"
      "                       checkpoint file instead of rejecting it\n"
      "  --strict             fail fast: the first work-unit error aborts\n"
      "                       the run (default: retry recoverable errors,\n"
      "                       then degrade the unit and continue)\n"
      "  --retries N          attempts per work unit incl. the first\n"
      "                       (default 3; 1 disables retry)\n"
      "  --audit-interval N   events between runtime invariant audits\n"
      "                       (default auto; see --no-audit)\n"
      "  --no-audit           disable the runtime invariant auditor\n"
      "  --watchdog-seconds X abort a work unit after X wall-clock seconds\n"
      "  --fast-rates         polynomial thermal rate kernel (~1e-12 relative\n"
      "                       of exact); faster at T > 0, but trajectories\n"
      "                       are not bitwise comparable with exact runs\n"
      "  --ensemble N         run N device replicas with perturbed parameters\n"
      "                       (statistical variability study); any --ensemble-*\n"
      "                       flag also enables the ensemble\n"
      "  --ensemble-seed N    dedicated ensemble seed (0 = derive from --seed)\n"
      "  --ensemble-bg-spread X   background-charge offset spread [e]\n"
      "  --ensemble-r-spread  X   relative junction-R spread\n"
      "  --ensemble-c-spread  X   relative junction/capacitor-C spread\n"
      "  --ensemble-t-spread  X   relative temperature spread\n"
      "  --ensemble-*-dist D  draw distribution: gaussian (default) | uniform\n"
      "  --ensemble-yield-min/max X   |I| window a replica must land in to\n"
      "                       count toward the yield fraction\n"
      "  --partitions N       domain-decompose the single-run measurement\n"
      "                       into up to N weakly-coupled clusters advanced\n"
      "                       under conservative time windows; any\n"
      "                       --partition-* flag also enables this. The\n"
      "                       planner never cuts a strongly-coupled\n"
      "                       component, so the effective count may be lower\n"
      "  --partition-window X synchronization window [s] (0 = auto from the\n"
      "                       initial total rate)\n"
      "  --partition-threshold X  normalized kappa coupling above which two\n"
      "                       islands must share a cluster (default 0.025)\n"
      "exit codes: 0 ok, 1 error, 2 usage, 3 parse/circuit, 4 numeric or\n"
      "invariant violation, 5 I/O or checkpoint mismatch, 6 watchdog\n"
      "timeout, 8 completed degraded (some work units failed)\n",
      argv0, RunResult::kJsonSchema);
}

}  // namespace

int main(int argc, char** argv) {
  std::string input_path;
  std::string out_path;
  std::string json_path;
  std::string canonical_json_path;
  RunRequest req;
  std::optional<std::uint32_t> repeats_override;
  bool master_check = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    std::string v;
    if (flag_value(a, "--seed", argc, argv, i, &v)) {
      req.seed = parse_u64("--seed", v);
    } else if (flag_value(a, "--threads", argc, argv, i, &v)) {
      req.threads = static_cast<unsigned>(parse_u64("--threads", v));
    } else if (flag_value(a, "--repeats", argc, argv, i, &v)) {
      repeats_override = parse_count("--repeats", v);
    } else if (flag_value(a, "--target-rel-error", argc, argv, i, &v)) {
      req.stop.target_rel_error = parse_positive_f64("--target-rel-error", v);
    } else if (flag_value(a, "--max-events", argc, argv, i, &v)) {
      req.stop.max_events = parse_u64("--max-events", v);
    } else if (flag_value(a, "--checkpoint", argc, argv, i, &v)) {
      req.checkpoint_path = v;
    } else if (flag_value(a, "--resume", argc, argv, i, &v)) {
      req.resume_path = v;
    } else if (a == "--salvage-checkpoint") {
      req.salvage_checkpoint = true;
    } else if (a == "--strict") {
      req.retry.strict = true;
    } else if (flag_value(a, "--retries", argc, argv, i, &v)) {
      req.retry.max_attempts = parse_count("--retries", v);
    } else if (flag_value(a, "--audit-interval", argc, argv, i, &v)) {
      req.audit.interval = parse_u64("--audit-interval", v);
    } else if (a == "--no-audit") {
      req.audit.enabled = false;
    } else if (flag_value(a, "--watchdog-seconds", argc, argv, i, &v)) {
      req.audit.watchdog_seconds = parse_f64("--watchdog-seconds", v);
      if (!(req.audit.watchdog_seconds > 0.0)) {
        flag_error("--watchdog-seconds", "must be > 0", v);
      }
    } else if (a == "--non-adaptive") {
      req.adaptive = false;
    } else if (a == "--fast-rates") {
      req.fast_rates = true;
    } else if (flag_value(a, "--out", argc, argv, i, &v)) {
      out_path = v;
    } else if (flag_value(a, "--canonical-json", argc, argv, i, &v)) {
      canonical_json_path = v;
    } else if (flag_value(a, "--json", argc, argv, i, &v)) {
      json_path = v;
    } else if (a == "--master-check") {
      master_check = true;
    } else if (parse_spec_flag(a, argc, argv, i, &req.ensemble)) {
      // handled (any ensemble flag enables the ensemble)
    } else if (parse_spec_flag(a, argc, argv, i, &req.partition)) {
      // handled (any partition flag enables partitioned execution)
    } else if (a == "--help" || a == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!a.empty() && a[0] != '-' && input_path.empty()) {
      input_path = a;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
      usage(argv[0]);
      return kExitUsage;
    }
  }
  if (input_path.empty()) {
    usage(argv[0]);
    return kExitUsage;
  }

  try {
    req.input = parse_simulation_file(input_path);
    if (repeats_override) req.input.repeats = *repeats_override;
    const SimulationInput& input = req.input;
    std::printf("# %s: %zu nodes, %zu junctions, T = %g K, %s solver%s\n",
                input_path.c_str(), input.circuit.node_count(),
                input.circuit.junction_count(), input.temperature,
                req.adaptive ? "adaptive" : "non-adaptive",
                input.cotunneling ? ", cotunneling" : "");

    const RunResult res = run(req);
    const DriverResult& r = res.driver;
    std::printf("# fingerprint: %s\n", fingerprint_hex(res.fingerprint).c_str());

    if (!r.sweep.empty()) {
      TableWriter table({"v_swept_V", "current_A", "stderr_A", "rel_err",
                         "tau_int", "events", "status"});
      table.add_comment("semsim sweep of node " +
                        std::to_string(input.sweep->source));
      for (const IvPoint& p : r.sweep) {
        table.add_row({p.bias, p.current, p.stderr_mean, p.rel_error,
                       p.tau_int, static_cast<double>(p.events),
                       point_status_label(p)});
      }
      if (!out_path.empty()) {
        table.write_file(out_path);
        std::printf("# wrote %zu sweep points to %s\n", r.sweep.size(),
                    out_path.c_str());
      } else {
        table.write(std::cout);
      }
    } else if (r.current) {
      std::printf("I = %.6e A +- %.1e  (%llu events, %.3e s simulated)\n",
                  r.current->mean, r.current->stderr_mean,
                  static_cast<unsigned long long>(r.events),
                  r.simulated_time);
      if (r.converged) {
        std::printf(
            "# convergence: rel_err = %.3e (target %.3e, %s), tau_int = "
            "%.2f, %llu samples\n",
            r.converged->rel_error, req.stop.target_rel_error,
            r.converged->converged ? "reached" : "event cap hit",
            r.converged->tau_int,
            static_cast<unsigned long long>(r.converged->samples.count()));
      }
      if (!out_path.empty()) {
        TableWriter table({"current_A", "stderr_A", "events", "sim_time_s"});
        table.add_row({r.current->mean, r.current->stderr_mean,
                       static_cast<double>(r.events), r.simulated_time});
        table.write_file(out_path);
      }
    }

    if (r.ensemble) {
      const EnsembleResult& ens = *r.ensemble;
      const EnsembleBandStats& band = ens.observable_stats;
      std::printf("# ensemble: %u replicas (seed %llu), %u ok, yield %.3f\n",
                  ens.replicas, static_cast<unsigned long long>(ens.seed),
                  band.n_ok, band.yield);
      std::printf(
          "# band: mean %.6e A, spread %.3e A, min %.6e A, max %.6e A\n",
          band.mean, band.spread, band.min, band.max);
      TableWriter table({"replica", "observable_A", "stderr_A", "events",
                         "sim_time_s", "attempts", "status"});
      table.add_comment("semsim ensemble replica rows");
      for (const ReplicaRow& row : ens.rows) {
        table.add_row({static_cast<double>(row.replica), row.observable,
                       row.current.stderr_mean,
                       static_cast<double>(row.events), row.sim_time,
                       static_cast<double>(row.attempts),
                       replica_status_label(row)});
      }
      table.write(std::cout);
    }
    std::printf("# work: %llu rate evaluations over %llu events\n",
                static_cast<unsigned long long>(r.stats.rate_evaluations),
                static_cast<unsigned long long>(r.stats.events));
    std::printf(
        "# run: %u thread(s), %llu unit(s), %llu events, %llu rate evals, "
        "%llu flags, %llu refreshes, %.3f s wall\n",
        r.counters.threads, static_cast<unsigned long long>(r.counters.units),
        static_cast<unsigned long long>(r.counters.events),
        static_cast<unsigned long long>(r.counters.rate_evaluations),
        static_cast<unsigned long long>(r.counters.flags_raised),
        static_cast<unsigned long long>(r.counters.full_refreshes),
        r.counters.wall_seconds);

    if (!json_path.empty()) {
      std::ofstream f(json_path, std::ios::binary);
      if (!f) {
        std::fprintf(stderr, "semsim: cannot write %s\n", json_path.c_str());
        return 1;
      }
      f << res.to_json() << '\n';
      std::printf("# wrote %s result to %s\n", RunResult::kJsonSchema,
                  json_path.c_str());
    }
    if (!canonical_json_path.empty()) {
      std::ofstream f(canonical_json_path, std::ios::binary);
      if (!f) {
        std::fprintf(stderr, "semsim: cannot write %s\n",
                     canonical_json_path.c_str());
        return 1;
      }
      f << res.to_json(/*canonical=*/true) << '\n';
      std::printf("# wrote canonical %s result to %s\n", RunResult::kJsonSchema,
                  canonical_json_path.c_str());
    }

    if (master_check) {
      MasterEquationSolver me(input.circuit, req.engine_options());
      std::printf("# master-equation check (%zu states):\n", me.state_count());
      for (const std::size_t j : input.record_junctions) {
        std::printf("#   junction %zu: I_me = %.6e A\n", j + 1,
                    me.junction_current(j));
      }
    }

    if (r.degraded()) {
      // Non-strict runs finish even when work units fail; signal the
      // degradation with a distinct exit code and name every failed unit.
      for (const UnitFailure& f : r.failures) {
        std::fprintf(stderr, "semsim: degraded: %s (code %s, %u attempts)\n",
                     f.message.c_str(), error_code_name(f.code), f.attempts);
      }
      return kExitDegraded;
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "semsim: %s\n", e.what());
    return exit_code_for(e);
  } catch (const std::bad_alloc&) {
    // An input too large for this host (e.g. a huge `num nodes`) must end
    // with a coded exit, never an abort.
    std::fprintf(stderr, "semsim: out of memory (std::bad_alloc)\n");
    return kExitFailure;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "semsim: %s\n", e.what());
    return kExitFailure;
  }
  return kExitOk;
}
