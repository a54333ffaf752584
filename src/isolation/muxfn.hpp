#pragma once
// Multiplexing functions g^k_{i,A} — Sec. 4.1.
//
// The fanin logic network L_A(c_i) feeding input A of an isolation
// candidate connects different *fanin candidates* to A depending on the
// configuration of its multiplexors. For each fanin candidate c_k,
// g^k_{i,A}(x) evaluates to 1 iff L_A(c_i) is configured such that c_k's
// output reaches A (e.g. g^{a0}_{a1,A} = S1·!S0 in Fig. 1). The same
// traversal, run forward, yields the fanout candidates C+ of a module
// and their connection conditions — the inputs to the secondary-savings
// model (Sec. 4.3).
//
// Traversal rules mirror the observability rules: mux select polarity
// multiplies the path condition; transparent latches and isolation cells
// multiply their enable; other combinational cells pass the condition
// through unchanged. Conditions of parallel paths OR together.

#include <functional>
#include <vector>

#include "boolfn/expr.hpp"
#include "netlist/netlist.hpp"
#include "sim/activity.hpp"

namespace opiso {

/// One candidate reachable through a combinational steering network,
/// together with the condition under which it is connected.
struct ConnectedCandidate {
  CellId candidate;
  ExprRef condition;
};

/// Fanin analysis of one candidate input pin.
struct FaninNetwork {
  std::vector<ConnectedCandidate> candidates;  ///< C^-_A with g^k_{i,A}
  /// True if a register, primary input or constant can also reach the
  /// pin — toggles then arrive even when every fanin candidate is idle.
  bool has_noncandidate_source = false;
};

/// Predicate: is this cell an isolation candidate? (Supplied by the
/// candidate identification so the traversal stops at the right cells.)
using CandidatePredicate = std::function<bool(CellId)>;

/// One fanout candidate c_j reached from a module's output, with the
/// input port of c_j the path reaches and its connection condition.
struct FanoutConnection {
  CellId candidate;  ///< the fanout candidate c_j
  int port;          ///< which input of c_j the path reaches
  ExprRef condition; ///< connection condition g
};

/// The steering analysis of one netlist. It sorts the netlist once, at
/// construction; each query then walks only the cone it analyses, so a
/// query costs the size of that cone, not of the netlist. Conditions
/// are built in `pool` over `vars` in the same order a walk over the
/// whole topological order would build them. Every reference must
/// outlive the object, and the netlist must not change while it lives.
class SteeringNetwork {
 public:
  SteeringNetwork(const Netlist& nl, ExprPool& pool, NetVarMap& vars,
                  CandidatePredicate is_candidate);

  /// Fanin network of input pin `port` of `cell`.
  [[nodiscard]] FaninNetwork fanin(CellId cell, int port);

  /// Fanout candidates C+ of `cell` with their connection conditions.
  [[nodiscard]] std::vector<FanoutConnection> fanouts(CellId cell);

 private:
  const Netlist& nl_;
  ExprPool& pool_;
  NetVarMap& vars_;
  CandidatePredicate is_candidate_;
  std::vector<std::size_t> pos_;  ///< per cell: position in topological order
  // Per-query work arrays, indexed by net (cond_, net_seen_) or cell
  // (cell_seen_); each query clears the entries its cone touched.
  std::vector<ExprRef> cond_;
  std::vector<bool> net_seen_;
  std::vector<bool> cell_seen_;
};

}  // namespace opiso
