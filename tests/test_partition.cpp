// Domain-decomposed execution (core/partition.h): plan purity and
// strong-coupling refusal, the 1-cluster bitwise-vs-solo contract, k-cluster
// thread-count invariance, the cross-cut charge-conservation audit under
// fault injection, and driver-level checkpoint/resume of a partitioned run.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "analysis/driver.h"
#include "base/error.h"
#include "base/thread_pool.h"
#include "core/engine.h"
#include "core/partition.h"
#include "guard/fault.h"
#include "netlist/circuit.h"
#include "netlist/electrostatics.h"
#include "netlist/parser.h"

namespace semsim {
namespace {

/// The perf gate's chain scenario: `stages` independent double-junction
/// SETs between shared +-10 mV rails, neighbouring islands tied by
/// `coupling_f`. At 0.5 aF against the 20 aF ground caps the normalized
/// kappa coupling sits just below the planner's default threshold (the cut
/// regime); at 5 aF it is far above it (the refuse-to-cut regime).
Circuit stage_circuit(int stages, double coupling_f) {
  Circuit c;
  const NodeId vp = c.add_external("vp");
  const NodeId vn = c.add_external("vn");
  c.set_source(vp, Waveform::dc(0.01));
  c.set_source(vn, Waveform::dc(-0.01));
  NodeId prev = Circuit::kGroundNode;
  for (int s = 0; s < stages; ++s) {
    const NodeId i = c.add_island();
    c.add_junction(vp, i, 1e6, 1e-18);
    c.add_junction(i, vn, 1e6, 1e-18);
    c.add_capacitor(i, Circuit::kGroundNode, 20e-18);
    if (coupling_f > 0.0 && s > 0) c.add_capacitor(prev, i, coupling_f);
    prev = i;
  }
  c.build_caches();
  return c;
}

constexpr double kWeak = 0.5e-18;
constexpr double kStrong = 5e-18;

PartitionSpec spec_for(std::uint32_t clusters) {
  PartitionSpec s;
  s.enabled = true;
  s.clusters = clusters;
  return s;
}

EngineOptions base_options(std::uint64_t seed = 42) {
  EngineOptions o;
  o.temperature = 0.0;
  o.seed = seed;
  return o;
}

void expect_snapshots_equal(const EngineSnapshot& a, const EngineSnapshot& b) {
  EXPECT_EQ(a.rng, b.rng);
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.next_breakpoint, b.next_breakpoint);
  EXPECT_EQ(a.electrons, b.electrons);
  EXPECT_EQ(a.transferred_e, b.transferred_e);
  EXPECT_EQ(a.v_ext, b.v_ext);
  EXPECT_EQ(a.stats.events, b.stats.events);
  EXPECT_EQ(a.stats.rate_evaluations, b.stats.rate_evaluations);
}

// ---- planner --------------------------------------------------------------

TEST(PartitionPlan, PureFunctionOfCircuitAndSpec) {
  const Circuit c = stage_circuit(8, kWeak);
  const ElectrostaticModel m(c);
  const PartitionSpec spec = spec_for(4);

  const PartitionPlan a = build_partition_plan(c, m, spec);
  const PartitionPlan b = build_partition_plan(c, m, spec);
  EXPECT_EQ(a.clusters, b.clusters);
  EXPECT_EQ(a.island_cluster, b.island_cluster);
  EXPECT_EQ(a.junction_cluster, b.junction_cluster);
  EXPECT_EQ(a.components, b.components);
  EXPECT_EQ(a.cut_capacitors, b.cut_capacitors);
  EXPECT_EQ(a.max_cut_coupling, b.max_cut_coupling);

  // The weak chain decomposes stage by stage and packs onto 4 clusters.
  EXPECT_EQ(a.clusters, 4u);
  EXPECT_EQ(a.components, 8u);
  EXPECT_GT(a.cut_capacitors, 0u);
  EXPECT_LE(a.max_cut_coupling, spec.coupling_threshold);
  // A junction with an island endpoint lives on that island's cluster.
  ASSERT_EQ(a.junction_cluster.size(), 16u);
  for (std::size_t s = 0; s < 8; ++s) {
    EXPECT_EQ(a.junction_cluster[2 * s], a.island_cluster[s]);
    EXPECT_EQ(a.junction_cluster[2 * s + 1], a.island_cluster[s]);
  }
}

TEST(PartitionPlan, RefusesToCutStrongCoupling) {
  const Circuit c = stage_circuit(8, kStrong);
  const ElectrostaticModel m(c);
  const PartitionPlan p = build_partition_plan(c, m, spec_for(4));
  // One strongly-coupled component: the planner never cuts it, no matter
  // how many clusters were requested.
  EXPECT_EQ(p.components, 1u);
  EXPECT_EQ(p.clusters, 1u);
  EXPECT_EQ(p.cut_capacitors, 0u);
  EXPECT_EQ(p.max_cut_coupling, 0.0);
}

// ---- 1-cluster bitwise-vs-solo contract ----------------------------------

TEST(PartitionEngine, OneClusterIsBitwiseIdenticalToSoloEngine) {
  const Circuit c = stage_circuit(6, kWeak);
  const ElectrostaticModel m(c);
  const EngineOptions o = base_options();

  Engine solo(c, o);
  ASSERT_EQ(solo.run_events(5000), 5000u);
  EngineSnapshot want = solo.snapshot();

  const ParallelExecutor exec8(8);
  for (const ParallelExecutor* exec : {(const ParallelExecutor*)nullptr,
                                       &exec8}) {
    SCOPED_TRACE(exec == nullptr ? "no executor" : "8-thread executor");
    PartitionedEngine part(c, m, o, spec_for(1), exec);
    ASSERT_EQ(part.clusters(), 1u);
    std::uint64_t remaining = 5000;
    while (remaining > 0) {
      const std::uint64_t chunk = remaining < 512 ? remaining : 512;
      ASSERT_EQ(part.advance_window(chunk), chunk);
      remaining -= chunk;
    }
    EXPECT_EQ(part.total_events(), 5000u);
    std::vector<EngineSnapshot> snaps = part.snapshot_clusters();
    ASSERT_EQ(snaps.size(), 1u);
    expect_snapshots_equal(want, snaps[0]);
    EXPECT_EQ(part.time(), solo.time());
  }
}

// ---- k-cluster thread-count invariance ------------------------------------

TEST(PartitionEngine, WindowedRunIsThreadCountInvariant) {
  const Circuit c = stage_circuit(8, kWeak);
  const ElectrostaticModel m(c);
  const EngineOptions o = base_options(7);

  const ParallelExecutor ex1(1);
  const ParallelExecutor ex8(8);
  PartitionedEngine p1(c, m, o, spec_for(4), &ex1);
  PartitionedEngine p8(c, m, o, spec_for(4), &ex8);
  ASSERT_EQ(p1.clusters(), 4u);
  ASSERT_EQ(p8.clusters(), 4u);
  EXPECT_EQ(p1.window(), p8.window());

  for (int w = 0; w < 12; ++w) {
    p1.advance_window(0);
    p8.advance_window(0);
  }
  EXPECT_EQ(p1.windows_done(), 12u);
  EXPECT_GT(p1.total_events(), 0u);
  EXPECT_EQ(p1.total_events(), p8.total_events());
  EXPECT_EQ(p1.time(), p8.time());

  std::vector<EngineSnapshot> s1 = p1.snapshot_clusters();
  std::vector<EngineSnapshot> s8 = p8.snapshot_clusters();
  ASSERT_EQ(s1.size(), 4u);
  ASSERT_EQ(s8.size(), 4u);
  for (std::size_t i = 0; i < s1.size(); ++i) {
    SCOPED_TRACE("cluster " + std::to_string(i));
    expect_snapshots_equal(s1[i], s8[i]);
  }
}

// ---- cross-cut charge audit under fault injection --------------------------

TEST(PartitionEngine, WindowAuditCatchesCorruptedCharge) {
  const Circuit c = stage_circuit(8, kWeak);
  const ElectrostaticModel m(c);

  FaultPlan plan;
  FaultSpec f;
  f.kind = FaultKind::kCorruptCharge;
  f.unit = 1;  // cluster 1's engine
  f.at_event = 40;
  f.index = 0;
  plan.faults.push_back(f);

  EngineOptions o = base_options(3);
  // Disable the engines' own in-run auditor so detection must come from
  // the partition barrier's cross-window audit.
  o.audit.enabled = false;
  o.fault = FaultInjector(&plan, 0, 0);

  const ParallelExecutor exec(2);
  PartitionedEngine part(c, m, o, spec_for(2), &exec);
  ASSERT_EQ(part.clusters(), 2u);
  try {
    for (int w = 0; w < 64 && !part.exhausted(); ++w) part.advance_window(256);
    FAIL() << "injected kCorruptCharge was not detected at a window barrier";
  } catch (const InvariantViolation& e) {
    EXPECT_EQ(e.code(), ErrorCode::kChargeNotConserved);
    EXPECT_NE(std::string(e.what()).find("cluster 1"), std::string::npos);
  }
}

TEST(PartitionEngine, CleanRunPassesEveryWindowAudit) {
  const Circuit c = stage_circuit(8, kWeak);
  const ElectrostaticModel m(c);
  const ParallelExecutor exec(2);
  PartitionedEngine part(c, m, base_options(3), spec_for(2), &exec);
  for (int w = 0; w < 32; ++w) part.advance_window(256);
  EXPECT_GT(part.total_events(), 0u);
  EXPECT_FALSE(part.exhausted());
}

// ---- driver-level checkpoint/resume ---------------------------------------

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(f)) << path;
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(f)),
                                   std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(b.data()),
          static_cast<std::streamsize>(b.size()));
}

std::uint64_t u64_at(const std::vector<std::uint8_t>& b, std::size_t off) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(b[off + i]) << (8 * i);
  return v;
}

void put_u64(std::vector<std::uint8_t>& b, std::size_t off, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    b[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

// Header layout (obs/checkpoint.h): record_count@32, records from byte 40
// as [u64 unit | u64 len | payload | u64 checksum]. Same surgery as
// test_checkpoint.cpp: truncate to the first `keep` records.
void keep_first_records(const std::string& path, std::uint64_t keep) {
  std::vector<std::uint8_t> b = read_bytes(path);
  ASSERT_LE(keep, u64_at(b, 32));
  std::size_t off = 40;
  for (std::uint64_t k = 0; k < keep; ++k) {
    const std::uint64_t len = u64_at(b, off + 8);
    off += 8 + 8 + static_cast<std::size_t>(len) + 8;
  }
  b.resize(off);
  put_u64(b, 32, keep);
  write_bytes(path, b);
}

struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

SimulationInput partitioned_input() {
  SimulationInput in;
  in.circuit = stage_circuit(4, kWeak);
  in.temperature = 0.0;
  in.record_junctions = {0, 1};
  in.max_jumps = 3000;
  return in;
}

DriverResult run_partitioned_input(unsigned threads,
                                   const std::string& checkpoint = "",
                                   const std::string& resume = "") {
  const SimulationInput in = partitioned_input();
  DriverOptions opt;
  opt.seed = 5;
  opt.threads = threads;
  opt.partition.enabled = true;
  opt.partition.clusters = 2;
  opt.checkpoint_path = checkpoint;
  opt.resume_path = resume;
  return run_simulation(in, opt);
}

void expect_results_bitwise_equal(const DriverResult& a,
                                  const DriverResult& b) {
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.simulated_time, b.simulated_time);
  ASSERT_TRUE(a.current.has_value());
  ASSERT_TRUE(b.current.has_value());
  EXPECT_EQ(a.current->mean, b.current->mean);
  EXPECT_EQ(a.current->stderr_mean, b.current->stderr_mean);
}

TEST(PartitionDriver, CheckpointedRunResumesMidWindowBitwise) {
  TempFile tmp("/tmp/semsim_ckpt_partition.bin");
  // The partitioned path snapshots at its 32 milestones on EVERY run —
  // checkpointed or not — so the un-checkpointed reference, the complete
  // checkpointed run, and the interrupted+resumed run must all agree.
  const DriverResult ref = run_partitioned_input(2);
  EXPECT_EQ(ref.counters.units, 2u);  // effective clusters

  const DriverResult full = run_partitioned_input(2, tmp.path);
  expect_results_bitwise_equal(ref, full);

  keep_first_records(tmp.path, 9);  // crash inside the milestone sequence
  const std::vector<std::uint8_t> interrupted = read_bytes(tmp.path);
  for (const unsigned threads : {1u, 8u}) {
    SCOPED_TRACE(threads);
    write_bytes(tmp.path, interrupted);
    const DriverResult res = run_partitioned_input(threads, "", tmp.path);
    expect_results_bitwise_equal(ref, res);
  }
}

TEST(PartitionDriver, DegenerateWindowFailsCodedOnTheWindowBudget) {
  // A 1 ns window on the blockaded two-SET example (which needs ~1e3 s of
  // simulated time for its events) would spin through ~1e12 empty
  // barriers. The window budget turns that into a coded error.
  const SimulationInput in = parse_simulation_file(
      std::string(SEMSIM_SOURCE_DIR) + "/examples/service/fabric.sem");
  DriverOptions opt;
  opt.seed = 7;
  opt.partition.enabled = true;
  opt.partition.clusters = 2;
  opt.partition.window = 1e-9;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    run_simulation(in, opt);
    ADD_FAILURE() << "degenerate window ran to completion";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNoProgress) << e.what();
    EXPECT_NE(std::string(e.what()).find("window budget"), std::string::npos);
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  EXPECT_LT(seconds, 30.0);
}

}  // namespace
}  // namespace semsim
