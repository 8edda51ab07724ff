// perfbench — the repository's end-to-end benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --serve-bin PATH [--out-dir DIR]
//   perfbench --make-reference logic_delay
//
// Run from the repository root (perfbench/run.py builds and calls it). The
// metric names, units and directions come from BENCHMARK.json, so the
// program and the declaration cannot drift: every end-to-end metric must be
// produced by every workload; per-layer metrics a workload does not measure
// are reported as 0. The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "io/json.h"
#include "workloads.h"

using namespace perfbench;

namespace {

struct MetricDecl {
  std::string name;
  std::string unit;
};

std::vector<MetricDecl> declared(const semsim::JsonValue& doc,
                                 const char* key) {
  std::vector<MetricDecl> out;
  for (const semsim::JsonValue& m : doc.at(key).items()) {
    out.push_back({m.at("name").as_string(), m.at("unit").as_string()});
  }
  return out;
}

[[noreturn]] void usage_error(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv, std::string* reference) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
    } else if (flag == "--trace") {
      a.trace = v == "1";
      if (v != "0" && v != "1") usage_error("--trace takes 0 or 1");
    } else if (flag == "--serve-bin") {
      a.serve_bin = v;
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else if (flag == "--make-reference") {
      *reference = v;
    } else {
      usage_error("unknown argument " + flag);
    }
    if (end != nullptr && *end != '\0') usage_error("bad number for " + flag);
  }
  if (reference->empty() && a.workload.empty()) usage_error("--workload");
  if (!(a.seconds > 0.0)) usage_error("--seconds must be > 0");
  return a;
}

void print_json(const Report& r, const std::vector<MetricDecl>& decls) {
  std::string out = format(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      r.failed == 0 && r.attempted > 0 ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < decls.size(); ++i) {
    const auto it = r.metrics.find(decls[i].name);
    out += format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", decls[i].name.c_str(), it->second,
                  decls[i].unit.c_str());
  }
  std::printf("%s}}\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string reference;
  const Args args = parse_args(argc, argv, &reference);

  try {
    if (!reference.empty()) {
      require_text(reference == "logic_delay",
                   "--make-reference: only logic_delay has a stored reference");
      make_logic_delay_reference();
      return 0;
    }

    const semsim::JsonValue spec =
        semsim::JsonValue::parse(read_text_file("BENCHMARK.json"));
    const std::vector<MetricDecl> e2e = declared(spec, "end_to_end");
    const std::vector<MetricDecl> layers = declared(spec, "per_layer");
    bool known = false;
    for (const semsim::JsonValue& w : spec.at("workloads").items()) {
      known = known || w.at("name").as_string() == args.workload;
    }
    if (!known) usage_error("unknown workload " + args.workload);

    Tracer tracer(args.trace);
    Report report;
    const CpuTicks ticks0 = cpu_ticks();
    if (args.workload == "logic_delay") {
      run_logic_delay(args, tracer, report);
      if (args.trace) probe_serve(args, tracer, report);
    } else {
      run_fabric_adaptive(args, tracer, report);
      if (args.trace) probe_ensemble(args, tracer, report);
    }

    // Every produced metric must be declared, and every end-to-end one
    // produced; a gap is a benchmark bug, not a measurement.
    for (const auto& [name, value] : report.metrics) {
      bool found = false;
      for (const auto* list : {&e2e, &layers}) {
        for (const MetricDecl& d : *list) found = found || d.name == name;
      }
      require_text(found, "metric " + name + " is not declared in "
                          "BENCHMARK.json");
    }
    for (const MetricDecl& d : e2e) {
      require_text(report.metrics.count(d.name) == 1,
                   "workload did not produce " + d.name);
    }
    for (const auto& [name, value] : report.metrics) {
      require_text(std::isfinite(value), "metric " + name + " is not finite");
    }
    std::vector<std::string> not_measured;
    if (args.trace) {
      for (const MetricDecl& d : layers) {
        if (report.metrics.emplace(d.name, 0.0).second) {
          not_measured.push_back(d.name);
        }
      }
    }

    const CpuTicks ticks1 = cpu_ticks();
    report.note(format("host steal time during the run: %.2f %% of CPU time",
                       100.0 * (ticks1.steal - ticks0.steal) /
                           std::max(1.0, ticks1.total - ticks0.total)));
    for (const std::string& line : report.lines) {
      std::printf("# %s\n", line.c_str());
    }
    for (const auto* list : {&e2e, &layers}) {
      for (const MetricDecl& d : *list) {
        const auto it = report.metrics.find(d.name);
        if (it == report.metrics.end()) continue;
        std::printf("# %-34s %16.6g %s\n", d.name.c_str(), it->second,
                    d.unit.c_str());
      }
    }
    if (!not_measured.empty()) {
      std::string names;
      for (const std::string& n : not_measured) names += " " + n;
      std::printf("# not measured by this workload (reported as 0):%s\n",
                  names.c_str());
    }
    std::printf("# failed_frac %.6g (%llu of %llu operations)\n",
                report.attempted
                    ? static_cast<double>(report.failed) /
                          static_cast<double>(report.attempted)
                    : 1.0,
                static_cast<unsigned long long>(report.failed),
                static_cast<unsigned long long>(report.attempted));

    if (args.trace) {
      std::filesystem::create_directories(args.out_dir);
      const std::string path = args.out_dir + "/spans-" + args.workload +
                               "-" + std::to_string(args.seed) + ".json";
      tracer.write(path);
      std::printf("# spans written to %s\n", path.c_str());
    }
    print_json(report, args.trace ? layers : e2e);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
