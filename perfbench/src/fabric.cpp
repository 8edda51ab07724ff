#include "fabric.h"

#include <algorithm>
#include <cmath>

#include "base/constants.h"

using namespace semsim;

namespace perfbench {
namespace {

constexpr std::uint64_t kFabricSeed = 7;
constexpr double kCouplerF = 0.5e-18;
/// Allowed deviation of a block's output charge flow from one full swing
/// per pulse edge.
constexpr double kSwingTolerance = 0.35;

}  // namespace

Fabric build_fabric(Tracer& tracer) {
  Fabric f;
  {
    const Scope span(tracer, "logic.elaborate");
    RandomLogicSpec per_block;
    per_block.target_junctions = 512;
    per_block.seed = kFabricSeed;
    f.blocks = make_random_logic_blocks(per_block, kFabricBlocks);
    const SetLogicParams params{};
    f.elab = std::make_unique<ElaboratedCircuit>(
        elaborate(f.blocks.netlist, params));
    Circuit& c = f.elab->circuit();
    for (std::size_t b = 0; b + 1 < kFabricBlocks; ++b) {
      c.add_capacitor(f.elab->node(f.blocks.chain_out[b]),
                      f.elab->node(f.blocks.chain_out[b + 1]), kCouplerF);
    }
    const auto& ins = f.blocks.netlist.inputs();
    const std::size_t per_block_inputs = ins.size() / kFabricBlocks;
    for (std::size_t i = 0; i < ins.size(); ++i) {
      const NodeId node = f.elab->node(ins[i]);
      if (i % per_block_inputs == 0) {
        const double delay = kPulsePeriod *
                             static_cast<double>(i / per_block_inputs) /
                             static_cast<double>(kFabricBlocks);
        c.set_source(node, Waveform::pulse(0.0, params.vdd, delay,
                                           0.5 * kPulsePeriod, kPulsePeriod));
      } else {
        c.set_source(node, Waveform::dc(0.0));
      }
    }
    c.build_caches();
  }
  const Scope span(tracer, "netlist.model");
  f.model = std::make_shared<const ElectrostaticModel>(f.elab->circuit());
  return f;
}

EngineOptions fabric_options(std::uint64_t seed) {
  EngineOptions o;
  o.temperature = SetLogicParams{}.temperature;
  o.adaptive.enabled = true;
  o.seed = seed;
  return o;
}

std::vector<std::vector<double>> output_transfers(
    const Fabric& f, const std::function<double(std::size_t)>& transferred) {
  std::vector<std::vector<double>> out;
  for (const SignalId s : f.blocks.chain_out) {
    out.emplace_back();
    for (const std::size_t j :
         f.elab->circuit().junctions_of(f.elab->node(s))) {
      out.back().push_back(transferred(j));
    }
  }
  return out;
}

std::pair<double, double> check_swings(
    const Fabric& f, const std::vector<std::vector<double>>& flow0,
    const std::vector<std::vector<double>>& flow1, double periods,
    const std::string& what, Report& report) {
  const double n_high = std::round(SetLogicParams{}.vdd *
                                   SetLogicParams{}.c_wire / kElementaryCharge);
  double lo = INFINITY, hi = -INFINITY;
  for (std::size_t b = 0; b < f.blocks.chain_out.size(); ++b) {
    double moved = 0.0;
    for (std::size_t k = 0; k < flow1[b].size(); ++k) {
      moved += std::abs(flow1[b][k] - flow0[b][k]);
    }
    const double swings = moved / (2.0 * n_high * periods);
    report.check(std::abs(swings - 1.0) <= kSwingTolerance,
                 format("%s, block %zu: output swings %.3f per input pulse",
                        what.c_str(), b, swings));
    lo = std::min(lo, swings);
    hi = std::max(hi, swings);
  }
  return {lo, hi};
}

}  // namespace perfbench
