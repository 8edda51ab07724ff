// The logic fabric of the fabric_adaptive workload and the partition probe:
// four 512-junction random-logic blocks tied by 0.5 aF wire couplers
// between adjacent chain outputs, every chain input driven by a
// phase-staggered pulse train (the fabric bench/iscas_scale.cpp builds).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/options.h"
#include "logic/elaborate.h"
#include "logic/random_logic.h"
#include "netlist/electrostatics.h"

namespace perfbench {

constexpr std::size_t kFabricBlocks = 4;
/// 20x the period bench/iscas_scale.cpp uses: a 12-inverter chain needs
/// about 170 ns, and at 20 ns it filters the pulses out, so the outputs
/// could not be checked against their pulse trains.
constexpr double kPulsePeriod = 400e-9;

struct Fabric {
  semsim::RandomLogicBlocks blocks;
  std::unique_ptr<semsim::ElaboratedCircuit> elab;
  std::shared_ptr<const semsim::ElectrostaticModel> model;
};

/// Generates and elaborates the fabric (span logic.elaborate), then builds
/// its electrostatic model (span netlist.model). The fabric itself is fixed
/// (bench/iscas_scale.cpp's generator seed); --seed drives only the engine
/// streams, because fabrics of different generator seeds differ in cost per
/// simulated span by about 15 %.
Fabric build_fabric(Tracer& tracer);

/// Adaptive solver at the logic family's temperature.
semsim::EngineOptions fabric_options(std::uint64_t seed);

/// Cumulative transfer count of the junctions on each block's chain-output
/// wire, block-major; `transferred(j)` reads junction j's count.
std::vector<std::vector<double>> output_transfers(
    const Fabric& f, const std::function<double(std::size_t)>& transferred);

/// Checks that between the snapshots `flow0` and `flow1`, `periods` pulse
/// periods apart, every block's output wire was charged and discharged
/// once per input pulse (within 35 %): the two junctions on it together
/// move 2 n_high electrons per period. Returns the smallest and largest
/// swing count per pulse.
std::pair<double, double> check_swings(
    const Fabric& f, const std::vector<std::vector<double>>& flow0,
    const std::vector<std::vector<double>>& flow1, double periods,
    const std::string& what, Report& report);

}  // namespace perfbench
