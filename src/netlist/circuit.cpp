#include "netlist/circuit.h"

#include <algorithm>
#include <utility>

#include "base/error.h"

namespace semsim {

namespace {
const Waveform kGroundSource = Waveform::dc(0.0);
}

Circuit::Circuit() {
  nodes_.push_back(Node{NodeKind::kGround, "gnd"});
  sources_.push_back(Waveform::dc(0.0));
  background_charge_e_.push_back(0.0);
}

NodeId Circuit::add_external(std::string name) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  if (name.empty()) name = "ext" + std::to_string(id);
  nodes_.push_back(Node{NodeKind::kExternal, std::move(name)});
  sources_.push_back(Waveform::dc(0.0));
  background_charge_e_.push_back(0.0);
  invalidate_adjacency();
  return id;
}

NodeId Circuit::add_island(std::string name) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  if (name.empty()) name = "isl" + std::to_string(id);
  nodes_.push_back(Node{NodeKind::kIsland, std::move(name)});
  sources_.push_back(Waveform::dc(0.0));
  background_charge_e_.push_back(0.0);
  invalidate_adjacency();
  return id;
}

std::size_t Circuit::add_junction(NodeId a, NodeId b, double resistance,
                                  double capacitance) {
  require(a >= 0 && static_cast<std::size_t>(a) < nodes_.size(),
          "add_junction: node a out of range");
  require(b >= 0 && static_cast<std::size_t>(b) < nodes_.size(),
          "add_junction: node b out of range");
  if (a == b)
    throw CircuitError(ErrorCode::kCircuitSelfLoop,
                       "add_junction: self-loop junction");
  if (!(resistance > 0.0))
    throw CircuitError(ErrorCode::kCircuitBadElementValue,
                       "add_junction: resistance must be positive");
  if (!(capacitance > 0.0))
    throw CircuitError(ErrorCode::kCircuitBadElementValue,
                       "add_junction: capacitance must be positive");
  junctions_.push_back(Junction{a, b, resistance, capacitance});
  invalidate_adjacency();
  return junctions_.size() - 1;
}

std::size_t Circuit::add_capacitor(NodeId a, NodeId b, double capacitance) {
  require(a >= 0 && static_cast<std::size_t>(a) < nodes_.size(),
          "add_capacitor: node a out of range");
  require(b >= 0 && static_cast<std::size_t>(b) < nodes_.size(),
          "add_capacitor: node b out of range");
  if (a == b)
    throw CircuitError(ErrorCode::kCircuitSelfLoop,
                       "add_capacitor: self-loop capacitor");
  if (!(capacitance > 0.0))
    throw CircuitError(ErrorCode::kCircuitBadElementValue,
                       "add_capacitor: capacitance must be positive");
  capacitors_.push_back(Capacitor{a, b, capacitance});
  invalidate_adjacency();
  return capacitors_.size() - 1;
}

void Circuit::set_source(NodeId n, Waveform w) {
  require(n > 0 && static_cast<std::size_t>(n) < nodes_.size(),
          "set_source: node out of range");
  if (nodes_[static_cast<std::size_t>(n)].kind != NodeKind::kExternal) {
    throw CircuitError("set_source: node " + std::to_string(n) +
                       " is not an external lead");
  }
  sources_[static_cast<std::size_t>(n)] = std::move(w);
}

void Circuit::set_background_charge(NodeId n, double charge_in_e) {
  require(n >= 0 && static_cast<std::size_t>(n) < nodes_.size(),
          "set_background_charge: node out of range");
  if (!is_island(n)) {
    throw CircuitError("set_background_charge: node " + std::to_string(n) +
                       " is not an island");
  }
  background_charge_e_[static_cast<std::size_t>(n)] = charge_in_e;
}

void Circuit::set_junction_parameters(std::size_t j, double resistance,
                                      double capacitance) {
  require(j < junctions_.size(), "set_junction_parameters: index out of range");
  if (!(resistance > 0.0) || !(capacitance > 0.0)) {
    throw CircuitError(ErrorCode::kCircuitBadElementValue,
                       "set_junction_parameters: R and C must be positive");
  }
  junctions_[j].resistance = resistance;
  junctions_[j].capacitance = capacitance;
}

void Circuit::set_capacitor_value(std::size_t c, double capacitance) {
  require(c < capacitors_.size(), "set_capacitor_value: index out of range");
  if (!(capacitance > 0.0)) {
    throw CircuitError(ErrorCode::kCircuitBadElementValue,
                       "set_capacitor_value: capacitance must be positive");
  }
  capacitors_[c].capacitance = capacitance;
}

void Circuit::set_superconducting(SuperconductingParams p) {
  if (!(p.delta0 > 0.0) || !(p.tc > 0.0)) {
    throw CircuitError("set_superconducting: delta0 and tc must be positive");
  }
  sc_ = p;
}

const Waveform& Circuit::source(NodeId n) const {
  require(n >= 0 && static_cast<std::size_t>(n) < nodes_.size(),
          "source: node out of range");
  if (nodes_[static_cast<std::size_t>(n)].kind == NodeKind::kGround) {
    return kGroundSource;
  }
  return sources_[static_cast<std::size_t>(n)];
}

double Circuit::background_charge_e(NodeId n) const {
  require(n >= 0 && static_cast<std::size_t>(n) < nodes_.size(),
          "background_charge_e: node out of range");
  return background_charge_e_[static_cast<std::size_t>(n)];
}

const SuperconductingParams& Circuit::superconducting_params() const {
  require(sc_.has_value(),
          "superconducting_params: circuit is not superconducting");
  return *sc_;
}

const std::vector<std::size_t>& Circuit::junctions_of(NodeId n) const {
  require(n >= 0 && static_cast<std::size_t>(n) < nodes_.size(),
          "junctions_of: node out of range");
  return adjacency_.get([this] {
    std::vector<std::vector<std::size_t>> adj(nodes_.size());
    for (std::size_t j = 0; j < junctions_.size(); ++j) {
      adj[static_cast<std::size_t>(junctions_[j].a)].push_back(j);
      adj[static_cast<std::size_t>(junctions_[j].b)].push_back(j);
    }
    return adj;
  })[static_cast<std::size_t>(n)];
}

const std::vector<std::size_t>& Circuit::coupled_junctions_of(NodeId n) const {
  require(n >= 0 && static_cast<std::size_t>(n) < nodes_.size(),
          "coupled_junctions_of: node out of range");
  return coupled_adjacency_.get([this] {
    // Capacitive node-to-node adjacency (junction caps + capacitors).
    std::vector<std::vector<NodeId>> coupled_nodes(nodes_.size());
    auto couple = [&](NodeId a, NodeId b) {
      coupled_nodes[static_cast<std::size_t>(a)].push_back(b);
      coupled_nodes[static_cast<std::size_t>(b)].push_back(a);
    };
    for (const Junction& j : junctions_) couple(j.a, j.b);
    for (const Capacitor& c : capacitors_) couple(c.a, c.b);

    std::vector<std::vector<std::size_t>> adj(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      std::vector<std::size_t>& out = adj[i];
      const NodeId self = static_cast<NodeId>(i);
      for (std::size_t j : junctions_of(self)) out.push_back(j);
      for (const NodeId nb : coupled_nodes[i]) {
        // Skip fan-out through ground/rails: every wire couples to them, and
        // testing "all junctions coupled to ground" would degrade to the
        // non-adaptive solver. Fixed-potential nodes do not transmit
        // potential changes anyway.
        if (nodes_[static_cast<std::size_t>(nb)].kind != NodeKind::kIsland) {
          continue;
        }
        for (std::size_t j : junctions_of(nb)) out.push_back(j);
      }
      std::sort(out.begin(), out.end());
      out.erase(std::unique(out.begin(), out.end()), out.end());
    }
    return adj;
  })[static_cast<std::size_t>(n)];
}

std::vector<NodeId> Circuit::islands() const {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].kind == NodeKind::kIsland) out.push_back(static_cast<NodeId>(i));
  }
  return out;
}

std::vector<NodeId> Circuit::externals() const {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].kind == NodeKind::kExternal) out.push_back(static_cast<NodeId>(i));
  }
  return out;
}

void Circuit::build_caches() const {
  if (nodes_.empty()) return;
  junctions_of(0);
  coupled_junctions_of(0);
}

void Circuit::validate() const {
  std::vector<int> degree(nodes_.size(), 0);
  for (const Junction& j : junctions_) {
    ++degree[static_cast<std::size_t>(j.a)];
    ++degree[static_cast<std::size_t>(j.b)];
  }
  for (const Capacitor& c : capacitors_) {
    ++degree[static_cast<std::size_t>(c.a)];
    ++degree[static_cast<std::size_t>(c.b)];
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].kind == NodeKind::kIsland && degree[i] == 0) {
      throw CircuitError(ErrorCode::kCircuitDanglingIsland,
                         "validate: island '" + nodes_[i].name +
                             "' is not connected to anything");
    }
  }
}

}  // namespace semsim
