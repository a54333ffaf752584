#include "verify/equiv.hpp"

#include <optional>
#include <set>
#include <unordered_map>

#include "lower/gate_level.hpp"
#include "obs/trace.hpp"
#include "verify/grounder.hpp"

namespace opiso {

namespace {

/// Give every primary-input and register bit of `g` that has none a
/// variable, keyed by net name, in interleaved bit order: bit 0 of every
/// word, then bit 1, and so on. Word-major (blocked) order — the
/// first-encounter default — makes the BDD of a w-bit adder output
/// exponential in w; interleaving keeps it linear, which is the
/// difference between rewritten-datapath checks finishing in
/// milliseconds and blowing a multi-million-node budget.
void seed_interleaved_order(const Netlist& g, std::unordered_map<std::string, BoolVar>& vars) {
  std::set<std::pair<unsigned, std::string>> order;
  for (CellId id : g.cell_ids()) {
    const Cell& c = g.cell(id);
    if (c.kind != CellKind::PrimaryInput && c.kind != CellKind::Reg) continue;
    const std::string& name = g.net(c.out).name;
    unsigned bit = 0;
    const auto dot = name.rfind('.');
    if (dot != std::string::npos && dot + 1 < name.size()) {
      unsigned v = 0;
      bool all_digits = true;
      for (std::size_t i = dot + 1; i < name.size(); ++i) {
        if (name[i] < '0' || name[i] > '9') {
          all_digits = false;
          break;
        }
        v = v * 10 + static_cast<unsigned>(name[i] - '0');
      }
      if (all_digits) bit = v;
    }
    order.emplace(bit, name);
  }
  for (const auto& [bit, name] : order) vars.emplace(name, static_cast<BoolVar>(vars.size()));
}

/// Per cell of `g`: set for the registers a primary output reads,
/// directly or through another register's D or EN.
std::vector<char> registers_read_by_outputs(const Netlist& g) {
  std::vector<char> read(g.num_cells(), 0);
  std::vector<char> seen(g.num_nets(), 0);
  std::vector<NetId> work;
  for (CellId po : g.primary_outputs()) work.push_back(g.cell(po).ins[0]);
  while (!work.empty()) {
    const NetId net = work.back();
    work.pop_back();
    if (seen[net.value()]) continue;
    seen[net.value()] = 1;
    const CellId cell = g.net(net).driver;
    if (g.cell(cell).kind == CellKind::Reg) read[cell.value()] = 1;
    const std::vector<NetId>& ins = g.cell(cell).ins;
    work.insert(work.end(), ins.begin(), ins.end());
  }
  return read;
}

}  // namespace

EquivResult check_isolation_equivalence(const Netlist& original, const Netlist& transformed,
                                        const BddBudget& budget) {
  OPISO_SPAN("verify.equiv");
  EquivResult res;
  if (has_latches(original) || has_latches(transformed)) {
    res.unsupported = true;
    res.reason = "designs with latches have no single-cut combinational semantics; "
                 "use the simulation-based lock-step check";
    return res;
  }

  const GateLevelResult ga = lower_to_gates(original);
  const GateLevelResult gb = lower_to_gates(transformed);

  // One grounder per design, both over one variable per primary-input
  // and register bit name. An obligation grounds only the nets it reads.
  BddManager mgr(budget);
  std::unordered_map<std::string, BoolVar> vars;
  seed_interleaved_order(ga.netlist, vars);
  seed_interleaved_order(gb.netlist, vars);
  const auto state_bits = [&mgr, &vars](const Netlist& g) {
    return [&mgr, &vars, &g](NetId net, const Cell& driver) -> std::optional<BddRef> {
      if (driver.kind != CellKind::PrimaryInput && driver.kind != CellKind::Reg) {
        return std::nullopt;
      }
      return mgr.var(vars.at(g.net(net).name));
    };
  };
  NetGrounder fa(ga.netlist, mgr, state_bits(ga.netlist));
  NetGrounder fb(gb.netlist, mgr, state_bits(gb.netlist));

  // --- register obligations, matched by bit-net name -------------------
  // A register bit no output reads may be missing from the transformed
  // design: its value never reaches an observed function.
  const std::vector<char> read_a = registers_read_by_outputs(ga.netlist);
  std::unordered_map<std::string, CellId> regs_b;
  for (CellId id : gb.netlist.cell_ids()) {
    const Cell& c = gb.netlist.cell(id);
    if (c.kind == CellKind::Reg) regs_b.emplace(gb.netlist.net(c.out).name, id);
  }
  // An obligation is named before its BDDs are built, so a budget that
  // runs out can say which one it stopped.
  std::string obligation;
  try {
    std::size_t matched = 0;
    for (CellId id : ga.netlist.cell_ids()) {
      const Cell& ca = ga.netlist.cell(id);
      if (ca.kind != CellKind::Reg) continue;
      const std::string& name = ga.netlist.net(ca.out).name;
      auto it = regs_b.find(name);
      if (it == regs_b.end()) {
        if (!read_a[id.value()]) continue;
        res.reason = "register bit '" + name + "' missing from transformed design";
        return res;
      }
      ++matched;
      const Cell& cb = gb.netlist.cell(it->second);
      obligation = "enable of register bit '" + name + "'";
      const BddRef en_a = fa.of_net(ca.ins[1]);
      const BddRef en_b = fb.of_net(cb.ins[1]);
      ++res.obligations_checked;
      if (!mgr.equal(en_a, en_b)) {
        res.reason = "enable functions differ for register bit '" + name + "'";
        return res;
      }
      obligation = "load value of register bit '" + name + "'";
      const BddRef d_a = fa.of_net(ca.ins[0]);
      const BddRef d_b = fb.of_net(cb.ins[0]);
      const bool loads_equal = mgr.is_zero(mgr.band(en_a, mgr.bxor(d_a, d_b)));
      ++res.obligations_checked;
      if (!loads_equal) {
        res.reason = "register bit '" + name + "' can load a different value while enabled";
        return res;
      }
    }
    if (matched != regs_b.size()) {
      res.reason = "transformed design has extra registers";
      return res;
    }

    // --- primary outputs, by position ----------------------------------
    if (ga.netlist.primary_outputs().size() != gb.netlist.primary_outputs().size()) {
      res.reason = "primary output counts differ";
      return res;
    }
    for (std::size_t i = 0; i < ga.netlist.primary_outputs().size(); ++i) {
      const NetId na = ga.netlist.cell(ga.netlist.primary_outputs()[i]).ins[0];
      const NetId nb = gb.netlist.cell(gb.netlist.primary_outputs()[i]).ins[0];
      obligation =
          "primary output bit " + std::to_string(i) + " ('" + ga.netlist.net(na).name + "')";
      const bool same = mgr.equal(fa.of_net(na), fb.of_net(nb));
      ++res.obligations_checked;
      if (!same) {
        res.reason = obligation + " differs";
        return res;
      }
    }
  } catch (const ResourceError& e) {
    res.budget_exhausted = true;
    res.reason = e.what();
    res.stopped_at = obligation;
    res.bdd_nodes = mgr.num_nodes();
    return res;
  }

  res.equivalent = true;
  res.bdd_nodes = mgr.num_nodes();
  return res;
}

}  // namespace opiso
