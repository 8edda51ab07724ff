// Ensemble output pins: two committed canonical documents that every build
// must reproduce byte for byte, at any thread count.
//
//   * examples/ensemble/golden_canonical.json — the documented sweep run of
//     examples/ensemble/README.md (8 replicas, each its own I-V table);
//   * examples/ensemble/golden_measure.json — a plain current measurement
//     (no sweep) over 12 replicas with background-charge and resistance
//     spread, where replica 5's first attempt corrupts a rate, so the row
//     that recovers on its re-derived retry stream is pinned too.
//
// On a mismatch the produced document is written to the test's working
// directory as <golden stem>.actual.json for inspection.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "analysis/api.h"
#include "guard/fault.h"
#include "netlist/parser.h"

namespace semsim {
namespace {

const std::string kExampleDir =
    std::string(SEMSIM_SOURCE_DIR) + "/examples/ensemble/";

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << "cannot read " << path;
  std::ostringstream s;
  s << f.rdbuf();
  return s.str();
}

/// Runs `req` at 1 and 8 threads and compares both canonical documents
/// (with the CLI's trailing newline) against the committed golden.
void expect_matches_golden(RunRequest req, const std::string& golden) {
  const std::string want = read_file(kExampleDir + golden);
  const std::string actual =
      golden.substr(0, golden.rfind(".json")) + ".actual.json";
  for (const unsigned threads : {1u, 8u}) {
    req.threads = threads;
    const std::string got = run(req).to_json(/*canonical=*/true) + "\n";
    if (got != want) {
      std::ofstream(actual, std::ios::binary) << got;
    }
    EXPECT_TRUE(got == want)
        << golden << " differs at --threads " << threads << "; wrote "
        << actual;
  }
}

TEST(EnsembleGolden, DocumentedSweepRunMatchesCommittedCanonical) {
  // The README command: sweep_variability.sem --seed 7 --ensemble 8
  // --ensemble-bg-spread 0.05 --ensemble-r-spread 0.03 --canonical-json.
  RunRequest req;
  req.input = parse_simulation_file(kExampleDir + "sweep_variability.sem");
  req.seed = 7;
  req.ensemble.enabled = true;
  req.ensemble.replicas = 8;
  req.ensemble.bg_charge.spread = 0.05;
  req.ensemble.resistance.spread = 0.03;
  expect_matches_golden(req, "golden_canonical.json");
}

constexpr char kMeasureInput[] = R"(
num ext 3
num nodes 4
junc 1 1 4 1meg 1a
junc 2 4 2 1meg 1a
cap 3 4 3a
vdc 1 0.01
vdc 2 -0.01
vdc 3 0.0
temp 5
record 1 2
jumps 20000
)";

TEST(EnsembleGolden, PlainMeasurementMatchesCommittedGolden) {
  FaultPlan plan;
  FaultSpec f;
  f.kind = FaultKind::kNanRate;
  f.unit = 5;
  f.attempt = 0;  // the retry runs clean
  f.at_event = 300;
  plan.faults.push_back(f);

  RunRequest req;
  req.input = parse_simulation_input(kMeasureInput);
  req.seed = 11;
  req.fault_plan = &plan;
  req.ensemble.enabled = true;
  req.ensemble.replicas = 12;
  req.ensemble.bg_charge.spread = 0.05;
  req.ensemble.resistance.spread = 0.03;

  // The golden only pins the retry path if the fault really fired.
  const RunResult res = run(req);
  ASSERT_TRUE(res.driver.ensemble.has_value());
  const ReplicaRow& row = res.driver.ensemble->rows.at(5);
  EXPECT_TRUE(row.ok);
  EXPECT_EQ(row.attempts, 2u);
  EXPECT_EQ(row.code, ErrorCode::kNonFiniteRate);

  expect_matches_golden(req, "golden_measure.json");
}

}  // namespace
}  // namespace semsim
