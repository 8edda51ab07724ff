// Circuit netlist for single-electron device simulation.
//
// A circuit is a graph of nodes connected by tunnel junctions (R, C) and
// ordinary capacitors. Nodes come in three kinds:
//   * ground      — the implicit node 0, fixed at 0 V;
//   * external    — a lead whose potential is fixed by a voltage source;
//   * island      — a floating metallic region whose charge is quantized
//                   in units of e (plus a fractional background charge).
//
// The paper's input format (Example Input File 1) maps onto this API via
// netlist/parser.h; programmatic construction uses the builder methods here.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "base/lazy.h"
#include "netlist/waveform.h"

namespace semsim {

/// Index into Circuit's node table. Ground is always node 0.
using NodeId = std::int32_t;

enum class NodeKind : std::uint8_t { kGround, kExternal, kIsland };

struct Node {
  NodeKind kind = NodeKind::kIsland;
  std::string name;
};

/// Tunnel junction: resistance R [Ohm] and capacitance C [F] between two
/// nodes. "Forward" tunneling moves one electron from `a` to `b`.
struct Junction {
  NodeId a = 0;
  NodeId b = 0;
  double resistance = 0.0;
  double capacitance = 0.0;
};

/// Pure capacitor (no tunneling) between two nodes.
struct Capacitor {
  NodeId a = 0;
  NodeId b = 0;
  double capacitance = 0.0;
};

/// Superconducting material parameters applied to the whole circuit
/// (the paper: a circuit is entirely superconducting or entirely normal).
struct SuperconductingParams {
  double delta0 = 0.0;  ///< gap at T = 0 [J]
  double tc = 0.0;      ///< critical temperature [K]
};

class Circuit {
 public:
  /// Creates a circuit containing only the ground node (id 0).
  Circuit();

  static constexpr NodeId kGroundNode = 0;

  // ---- construction -------------------------------------------------------

  /// Adds an external lead with an attached DC 0 V source; reassign with
  /// set_source(). Returns its node id.
  NodeId add_external(std::string name = {});

  /// Adds a floating island. Returns its node id.
  NodeId add_island(std::string name = {});

  /// Adds a tunnel junction (electron transfer a -> b is "forward").
  /// Returns the junction index.
  std::size_t add_junction(NodeId a, NodeId b, double resistance,
                           double capacitance);

  /// Adds a pure capacitor. Returns the capacitor index.
  std::size_t add_capacitor(NodeId a, NodeId b, double capacitance);

  /// Sets the waveform of the source driving external node `n`.
  void set_source(NodeId n, Waveform w);

  /// Sets the background (offset) charge on island `n`, in units of e
  /// (the paper's Q_b/e, e.g. 0.65 for the Fig. 5 experiment).
  void set_background_charge(NodeId n, double charge_in_e);

  /// Marks the whole circuit superconducting with the given material.
  void set_superconducting(SuperconductingParams p);

  /// Overwrites junction `j`'s element values (R > 0, C > 0) without
  /// touching the topology, so the lazy adjacency caches stay valid. This
  /// is how the ensemble layer materializes perturbed device replicas from
  /// one parsed netlist (analysis/ensemble.h).
  void set_junction_parameters(std::size_t j, double resistance,
                               double capacitance);

  /// Overwrites capacitor `c`'s value (C > 0); same contract as
  /// set_junction_parameters.
  void set_capacitor_value(std::size_t c, double capacitance);

  // ---- queries -------------------------------------------------------------

  std::size_t node_count() const noexcept { return nodes_.size(); }
  std::size_t junction_count() const noexcept { return junctions_.size(); }
  std::size_t capacitor_count() const noexcept { return capacitors_.size(); }

  const Node& node(NodeId n) const { return nodes_.at(static_cast<std::size_t>(n)); }
  const Junction& junction(std::size_t j) const { return junctions_.at(j); }
  const Capacitor& capacitor(std::size_t c) const { return capacitors_.at(c); }
  const std::vector<Junction>& junctions() const noexcept { return junctions_; }
  const std::vector<Capacitor>& capacitors() const noexcept { return capacitors_; }

  bool is_island(NodeId n) const { return node(n).kind == NodeKind::kIsland; }
  bool is_fixed_potential(NodeId n) const { return !is_island(n); }

  /// Waveform of external node `n` (ground reads as DC 0).
  const Waveform& source(NodeId n) const;

  /// Background charge of node `n` in units of e (0 for non-islands).
  double background_charge_e(NodeId n) const;

  bool superconducting() const noexcept { return sc_.has_value(); }
  const SuperconductingParams& superconducting_params() const;

  /// Junction indices incident to node `n`. Built lazily, cached; safe for
  /// concurrent const callers.
  const std::vector<std::size_t>& junctions_of(NodeId n) const;

  /// Junctions incident to `n` OR to any node capacitively coupled to `n`
  /// (through a junction capacitance or a plain capacitor). This is the
  /// neighbourhood of the paper's Algorithm 1: in Fig. 4a an event in one
  /// logic stage tests the junctions of the next stage across the wire
  /// capacitance C1 — coupling, not junction-graph adjacency, decides who
  /// gets tested. Built lazily, cached.
  const std::vector<std::size_t>& coupled_junctions_of(NodeId n) const;

  /// All island node ids, in ascending order.
  std::vector<NodeId> islands() const;

  /// All external node ids (excluding ground), in ascending order.
  std::vector<NodeId> externals() const;

  /// Structural validation: endpoints valid and distinct, positive R and C
  /// on junctions, positive C on capacitors, every island connected to at
  /// least one junction or capacitor. Throws CircuitError on violation.
  /// (Electrical validity — every island capacitively tied to a fixed
  /// potential — is checked by ElectrostaticModel via Cholesky.)
  void validate() const;

  /// Forces construction of the lazy adjacency caches (the only mutable
  /// state; concurrent const access is safe either way). Parallel drivers
  /// call this so the one-time build happens before the workers start.
  void build_caches() const;

 private:
  void invalidate_adjacency() noexcept {
    adjacency_.reset();
    coupled_adjacency_.reset();
  }

  std::vector<Node> nodes_;
  std::vector<Junction> junctions_;
  std::vector<Capacitor> capacitors_;
  std::vector<Waveform> sources_;            // indexed by node id
  std::vector<double> background_charge_e_;  // indexed by node id
  std::optional<SuperconductingParams> sc_;
  // Node-indexed junction lists behind junctions_of/coupled_junctions_of.
  Lazy<std::vector<std::vector<std::size_t>>> adjacency_;
  Lazy<std::vector<std::vector<std::size_t>>> coupled_adjacency_;
};

}  // namespace semsim
