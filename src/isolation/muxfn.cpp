#include "isolation/muxfn.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "netlist/traversal.hpp"

namespace opiso {

namespace {

bool is_structural_source(CellKind kind) {
  return kind == CellKind::Reg || kind == CellKind::PrimaryInput || kind == CellKind::Constant;
}

/// Condition multiplied onto a path that enters `cell` at `port` and
/// leaves through its output. Returns invalid ExprRef for pins whose
/// induced toggling the model neglects (mux selects, latch enables —
/// footnote 1 of the paper).
ExprRef edge_condition(const Netlist& nl, ExprPool& pool, NetVarMap& vars, const Cell& cell,
                       int port) {
  switch (cell.kind) {
    case CellKind::Mux2:
      if (port == 0) return ExprRef::invalid();  // select-induced toggles neglected
      if (port == 1) return pool.lnot(pool.var(vars.var_of(nl, cell.ins[0])));
      return pool.var(vars.var_of(nl, cell.ins[0]));
    case CellKind::Latch:
    case CellKind::IsoAnd:
    case CellKind::IsoOr:
    case CellKind::IsoLatch:
      if (port == 1) return ExprRef::invalid();  // enable-induced toggles neglected
      return pool.var(vars.var_of(nl, cell.ins[1]));
    default:
      return pool.const1();
  }
}

}  // namespace

SteeringNetwork::SteeringNetwork(const Netlist& nl, ExprPool& pool, NetVarMap& vars,
                                 CandidatePredicate is_candidate)
    : nl_(nl),
      pool_(pool),
      vars_(vars),
      is_candidate_(std::move(is_candidate)),
      pos_(nl.num_cells(), 0),
      cond_(nl.num_nets(), ExprRef::invalid()),
      net_seen_(nl.num_nets(), false),
      cell_seen_(nl.num_cells(), false) {
  const std::vector<CellId> order = topological_order(nl);
  for (std::size_t i = 0; i < order.size(); ++i) pos_[order[i].value()] = i;
}

FaninNetwork SteeringNetwork::fanin(CellId cell, int port) {
  FaninNetwork fn;
  const NetId pin_net = nl_.cell(cell).ins.at(static_cast<size_t>(port));

  // cond_[n] = condition under which a toggle on net n propagates to the
  // pin through the steering network (invalid = unreached).
  cond_[pin_net.value()] = pool_.const1();

  // Collect the cone of nets that can reach the pin (stop at candidates
  // and structural sources), then process drivers in reverse topo order.
  std::vector<NetId> cone{pin_net};
  net_seen_[pin_net.value()] = true;
  for (std::size_t i = 0; i < cone.size(); ++i) {
    const CellId drv = nl_.net(cone[i]).driver;
    const Cell& d = nl_.cell(drv);
    if (is_candidate_(drv) || is_structural_source(d.kind)) continue;
    for (int p = 0; p < static_cast<int>(d.ins.size()); ++p) {
      if (!edge_condition(nl_, pool_, vars_, d, p).valid()) continue;
      NetId in = d.ins[static_cast<size_t>(p)];
      if (!net_seen_[in.value()]) {
        net_seen_[in.value()] = true;
        cone.push_back(in);
      }
    }
  }
  std::sort(cone.begin(), cone.end(), [&](NetId a, NetId b) {
    return pos_[nl_.net(a).driver.value()] > pos_[nl_.net(b).driver.value()];
  });

  std::map<CellId, ExprRef> found;
  for (NetId n : cone) {
    if (!cond_[n.value()].valid()) continue;  // unreachable under any condition
    const CellId drv = nl_.net(n).driver;
    const Cell& d = nl_.cell(drv);
    if (is_candidate_(drv)) {
      auto [it, inserted] = found.emplace(drv, cond_[n.value()]);
      if (!inserted) it->second = pool_.lor(it->second, cond_[n.value()]);
      continue;
    }
    if (is_structural_source(d.kind)) {
      if (d.kind != CellKind::Constant) fn.has_noncandidate_source = true;
      continue;
    }
    for (int p = 0; p < static_cast<int>(d.ins.size()); ++p) {
      ExprRef edge = edge_condition(nl_, pool_, vars_, d, p);
      if (!edge.valid()) continue;
      NetId in = d.ins[static_cast<size_t>(p)];
      ExprRef path = pool_.land(cond_[n.value()], edge);
      cond_[in.value()] = cond_[in.value()].valid() ? pool_.lor(cond_[in.value()], path) : path;
    }
  }
  // Reset the work arrays for the next query: every net this query marked
  // or gave a condition is in the cone.
  for (NetId n : cone) {
    cond_[n.value()] = ExprRef::invalid();
    net_seen_[n.value()] = false;
  }
  for (const auto& [cand, g] : found) fn.candidates.push_back(ConnectedCandidate{cand, g});
  return fn;
}

std::vector<FanoutConnection> SteeringNetwork::fanouts(CellId cell) {
  std::vector<FanoutConnection> result;
  const Cell& c = nl_.cell(cell);
  OPISO_REQUIRE(c.out.valid(), "SteeringNetwork::fanouts: cell has no output");

  // The cells a toggle on c's output can reach through non-candidate
  // combinational cells; candidates end a path, so they are collected
  // but not expanded. No other cell can see a valid condition below.
  std::vector<CellId> cone;
  const auto collect_sinks = [&](NetId net) {
    for (const Pin& pin : nl_.net(net).fanouts) {
      const CellKind kind = nl_.cell(pin.cell).kind;
      if (pin.cell == cell || cell_seen_[pin.cell.value()] || is_structural_source(kind) ||
          kind == CellKind::PrimaryOutput) {
        continue;
      }
      cell_seen_[pin.cell.value()] = true;
      cone.push_back(pin.cell);
    }
  };
  collect_sinks(c.out);
  for (std::size_t i = 0; i < cone.size(); ++i) {
    const NetId out = nl_.cell(cone[i]).out;
    if (!is_candidate_(cone[i]) && out.valid()) collect_sinks(out);
  }
  std::sort(cone.begin(), cone.end(),
            [&](CellId a, CellId b) { return pos_[a.value()] < pos_[b.value()]; });

  cond_[c.out.value()] = pool_.const1();
  for (CellId id : cone) {
    const Cell& y = nl_.cell(id);
    // Gather conditions arriving at y's inputs; candidates terminate
    // paths, everything else composes into y's output condition.
    ExprRef out_cond = ExprRef::invalid();
    for (int p = 0; p < static_cast<int>(y.ins.size()); ++p) {
      const NetId in = y.ins[static_cast<size_t>(p)];
      if (!cond_[in.value()].valid()) continue;
      if (is_candidate_(id)) {
        result.push_back(FanoutConnection{id, p, cond_[in.value()]});
        continue;
      }
      ExprRef edge = edge_condition(nl_, pool_, vars_, y, p);
      if (!edge.valid()) continue;
      ExprRef path = pool_.land(cond_[in.value()], edge);
      out_cond = out_cond.valid() ? pool_.lor(out_cond, path) : path;
    }
    if (out_cond.valid() && y.out.valid()) {
      cond_[y.out.value()] =
          cond_[y.out.value()].valid() ? pool_.lor(cond_[y.out.value()], out_cond) : out_cond;
    }
  }
  // Reset the work arrays: conditions were set only on c's output and on
  // the outputs of cone cells.
  cond_[c.out.value()] = ExprRef::invalid();
  for (CellId id : cone) {
    const NetId out = nl_.cell(id).out;
    if (out.valid()) cond_[out.value()] = ExprRef::invalid();
    cell_seen_[id.value()] = false;
  }
  return result;
}

}  // namespace opiso
