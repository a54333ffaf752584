#include "fsm/reachability.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <span>

#include "netlist/traversal.hpp"

namespace opiso {

namespace {

bool is_slice_gate(CellKind kind) {
  switch (kind) {
    case CellKind::Not:
    case CellKind::Buf:
    case CellKind::And:
    case CellKind::Or:
    case CellKind::Xor:
    case CellKind::Nand:
    case CellKind::Nor:
    case CellKind::Xnor:
    case CellKind::Mux2:
    case CellKind::Eq:
    case CellKind::Lt:
      return true;
    default:
      return false;
  }
}

/// Evaluates the control slice for one (state, input) pair.
struct SliceEvaluator {
  const Netlist& nl;
  const ControlSpace& space;
  std::vector<CellId> order;               ///< slice cells in topo order
  std::vector<int> state_index_of_cell;    ///< cell -> state bit (-1 none)
  std::vector<int> input_index_of_net;     ///< net -> input bit (-1 none)
  mutable std::vector<std::uint8_t> value; ///< per net

  SliceEvaluator(const Netlist& netlist, const ControlSpace& sp) : nl(netlist), space(sp) {
    std::vector<bool> in_slice(nl.num_nets(), false);
    for (NetId n : space.slice_nets) in_slice[n.value()] = true;
    state_index_of_cell.assign(nl.num_cells(), -1);
    for (std::size_t i = 0; i < space.state_regs.size(); ++i) {
      state_index_of_cell[space.state_regs[i].value()] = static_cast<int>(i);
    }
    input_index_of_net.assign(nl.num_nets(), -1);
    for (std::size_t i = 0; i < space.input_nets.size(); ++i) {
      input_index_of_net[space.input_nets[i].value()] = static_cast<int>(i);
    }
    for (CellId id : topological_order(nl)) {
      const Cell& c = nl.cell(id);
      if (c.out.valid() && in_slice[c.out.value()]) order.push_back(id);
    }
    value.assign(nl.num_nets(), 0);
  }

  void evaluate(std::uint64_t state, std::uint64_t input) const {
    for (CellId id : order) {
      const Cell& c = nl.cell(id);
      std::uint64_t out = 0;
      switch (c.kind) {
        case CellKind::Constant:
          out = c.param & 1;
          break;
        case CellKind::PrimaryInput: {
          const int idx = input_index_of_net[c.out.value()];
          OPISO_ASSERT(idx >= 0, "SliceEvaluator: PI missing from input enumeration");
          out = (input >> idx) & 1;
          break;
        }
        case CellKind::Reg:
          out = (state >> state_index_of_cell[id.value()]) & 1;
          break;
        default: {
          // A slice gate: every net it reads or drives is one bit wide.
          std::array<std::uint64_t, 3> in{};
          for (std::size_t p = 0; p < c.ins.size(); ++p) in[p] = value[c.ins[p].value()];
          out = cell_kind_eval(c.kind, c.param, 1,
                               std::span<const std::uint64_t>(in.data(), c.ins.size()));
          break;
        }
      }
      value[c.out.value()] = static_cast<std::uint8_t>(out);
    }
  }

  [[nodiscard]] std::uint64_t next_state(std::uint64_t state, std::uint64_t input) const {
    evaluate(state, input);
    std::uint64_t next = 0;
    for (std::size_t i = 0; i < space.state_regs.size(); ++i) {
      const Cell& r = nl.cell(space.state_regs[i]);
      const bool en = value[r.ins[1].value()] & 1;
      const bool d = value[r.ins[0].value()] & 1;
      const bool cur = (state >> i) & 1;
      if (en ? d : cur) next |= std::uint64_t{1} << i;
    }
    return next;
  }
};

}  // namespace

bool ControlSpace::in_slice(NetId net) const {
  return std::find(slice_nets.begin(), slice_nets.end(), net) != slice_nets.end();
}

ControlSpace explore_control_space(const Netlist& nl, unsigned max_state_bits,
                                   unsigned max_input_bits) {
  ControlSpace space;

  // Greatest fixpoint: start with every 1-bit net whose driver *could*
  // belong to the slice, then delete violations until stable. Starting
  // optimistic keeps mutually dependent FSM registers in.
  std::vector<bool> in_slice(nl.num_nets(), false);
  for (NetId id : nl.net_ids()) {
    const Cell& drv = nl.cell(nl.net(id).driver);
    if (nl.net(id).width != 1) continue;
    if (drv.kind == CellKind::Constant || drv.kind == CellKind::PrimaryInput ||
        drv.kind == CellKind::Reg || is_slice_gate(drv.kind)) {
      in_slice[id.value()] = true;
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (NetId id : nl.net_ids()) {
      if (!in_slice[id.value()]) continue;
      const Cell& drv = nl.cell(nl.net(id).driver);
      bool ok = true;
      if (is_slice_gate(drv.kind) || drv.kind == CellKind::Reg) {
        for (NetId in : drv.ins) {
          if (!in_slice[in.value()]) ok = false;
        }
      }
      if (!ok) {
        in_slice[id.value()] = false;
        changed = true;
      }
    }
  }

  for (NetId id : nl.net_ids()) {
    if (in_slice[id.value()]) space.slice_nets.push_back(id);
  }
  for (CellId id : nl.cell_ids()) {
    const Cell& c = nl.cell(id);
    if (c.kind == CellKind::Reg && c.out.valid() && in_slice[c.out.value()]) {
      space.state_regs.push_back(id);
    }
  }
  // Inputs: every 1-bit primary input in the slice. (Even a PI consumed
  // only by data-register enables can appear in the support of an
  // activation function, so the evaluator must enumerate its values.)
  for (CellId pi : nl.primary_inputs()) {
    const Cell& c = nl.cell(pi);
    if (c.width == 1 && in_slice[c.out.value()]) space.input_nets.push_back(c.out);
  }

  if (space.state_regs.size() > max_state_bits || space.input_nets.size() > max_input_bits) {
    space.tractable = false;
    return space;
  }

  // Explicit BFS from the all-zero reset state.
  const SliceEvaluator eval(nl, space);
  const std::uint64_t num_inputs = std::uint64_t{1} << space.input_nets.size();
  std::deque<std::uint64_t> frontier{0};
  space.reachable.insert(0);
  while (!frontier.empty()) {
    const std::uint64_t s = frontier.front();
    frontier.pop_front();
    for (std::uint64_t in = 0; in < num_inputs; ++in) {
      const std::uint64_t nxt = eval.next_state(s, in);
      if (space.reachable.insert(nxt).second) frontier.push_back(nxt);
    }
  }
  space.tractable = true;
  return space;
}

BddRef reachable_care_set(const ControlSpace& space, const Netlist& nl, BddManager& mgr,
                          NetVarMap& vars, const std::vector<NetId>& nets) {
  OPISO_REQUIRE(space.tractable, "reachable_care_set: control space intractable");
  for (NetId n : nets) {
    OPISO_REQUIRE(space.in_slice(n), "reachable_care_set: net outside the control slice: " +
                                         nl.net(n).name);
  }
  const SliceEvaluator eval(nl, space);
  const std::uint64_t num_inputs = std::uint64_t{1} << space.input_nets.size();
  BddRef care = mgr.zero();
  for (std::uint64_t state : space.reachable) {
    for (std::uint64_t in = 0; in < num_inputs; ++in) {
      eval.evaluate(state, in);
      BddRef minterm = mgr.one();
      for (NetId n : nets) {
        const BoolVar v = vars.var_of(nl, n);
        minterm = mgr.band(minterm, (eval.value[n.value()] & 1) ? mgr.var(v) : mgr.nvar(v));
      }
      care = mgr.bor(care, minterm);
    }
  }
  return care;
}

ExprRef minimize_with_reachability(const ControlSpace& space, const Netlist& nl, ExprPool& pool,
                                   NetVarMap& vars, ExprRef f) {
  if (!space.tractable) return f;
  std::vector<NetId> support_nets;
  for (BoolVar v : pool.support(f)) {
    const NetId n = vars.net_of(v);
    if (!space.in_slice(n)) return f;  // function leaves the control slice
    support_nets.push_back(n);
  }
  if (support_nets.empty()) return f;

  BddManager mgr;
  const BddRef care = reachable_care_set(space, nl, mgr, vars, support_nets);
  if (mgr.is_zero(care) || mgr.is_one(care)) return f;
  const BddRef f_bdd = mgr.from_expr(pool, f);
  const BddRef reduced = mgr.restrict_to_care(f_bdd, care);
  const ExprRef candidate = mgr.to_expr(pool, reduced);
  return pool.literal_count(candidate) < pool.literal_count(f) ? candidate : f;
}

}  // namespace opiso
