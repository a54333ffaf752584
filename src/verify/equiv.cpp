#include "verify/equiv.hpp"

#include <array>
#include <map>
#include <unordered_map>

#include "lower/gate_level.hpp"
#include "netlist/traversal.hpp"
#include "obs/trace.hpp"

namespace opiso {

namespace {

bool has_latches(const Netlist& nl) {
  for (CellId id : nl.cell_ids()) {
    if (cell_kind_is_latch(nl.cell(id).kind)) return true;
  }
  return false;
}

/// Shared variable space across both designs, keyed by net name.
struct VarSpace {
  BddManager& mgr;
  std::unordered_map<std::string, BoolVar> vars;

  BddRef var_for(const std::string& name) {
    auto [it, inserted] = vars.emplace(name, static_cast<BoolVar>(vars.size()));
    (void)inserted;
    return mgr.var(it->second);
  }
};

/// Seed the variable space in interleaved bit order: bit 0 of every
/// word, then bit 1, and so on. Word-major (blocked) order — the
/// first-encounter default — makes the BDD of a w-bit adder output
/// exponential in w; interleaving keeps it linear, which is the
/// difference between rewritten-datapath checks finishing in
/// milliseconds and blowing a multi-million-node budget.
void seed_interleaved_order(const Netlist& g, VarSpace& space) {
  std::map<std::pair<unsigned, std::string>, bool> order;
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
    order.emplace(std::make_pair(bit, name), true);
  }
  for (const auto& [key, unused] : order) {
    (void)unused;
    (void)space.var_for(key.second);
  }
}

/// BDD of every net of a lowered (all-1-bit) netlist, with PI bits and
/// register output bits as variables.
std::vector<BddRef> build_net_bdds(const Netlist& g, BddManager& mgr, VarSpace& space) {
  std::vector<BddRef> fn(g.num_nets(), BddRef::invalid());
  for (CellId id : topological_order(g)) {
    const Cell& c = g.cell(id);
    if (!c.out.valid()) continue;
    BddRef f;
    auto in = [&](int p) {
      const BddRef r = fn[c.ins[static_cast<size_t>(p)].value()];
      OPISO_ASSERT(r.valid(), "equiv: net evaluated before its driver");
      return r;
    };
    switch (c.kind) {
      case CellKind::PrimaryInput:
      case CellKind::Reg:
        f = space.var_for(g.net(c.out).name);
        break;
      case CellKind::Constant:
        f = (c.param & 1) ? mgr.one() : mgr.zero();
        break;
      default: {
        std::array<BddRef, 3> ins;
        for (std::size_t p = 0; p < c.ins.size(); ++p) ins[p] = in(static_cast<int>(p));
        f = one_bit_cell_bdd(mgr, c.kind, std::span<const BddRef>(ins.data(), c.ins.size()));
        break;
      }
    }
    fn[c.out.value()] = f;
  }
  return fn;
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

BddRef one_bit_cell_bdd(BddManager& mgr, CellKind kind, std::span<const BddRef> in) {
  switch (kind) {
    case CellKind::Buf: return in[0];
    case CellKind::Not: return mgr.bnot(in[0]);
    case CellKind::And:
    case CellKind::IsoAnd: return mgr.band(in[0], in[1]);
    case CellKind::Or: return mgr.bor(in[0], in[1]);
    case CellKind::Xor:
    case CellKind::Add:
    case CellKind::Sub: return mgr.bxor(in[0], in[1]);
    case CellKind::Nand: return mgr.bnot(mgr.band(in[0], in[1]));
    case CellKind::Nor: return mgr.bnot(mgr.bor(in[0], in[1]));
    case CellKind::Xnor:
    case CellKind::Eq: return mgr.bnot(mgr.bxor(in[0], in[1]));
    case CellKind::Lt: return mgr.band(mgr.bnot(in[0]), in[1]);
    case CellKind::Mux2: return mgr.ite(in[0], in[2], in[1]);
    case CellKind::IsoOr: return mgr.bor(in[0], mgr.bnot(in[1]));
    default:
      throw NetlistError("no one-bit BDD rule for cell kind '" +
                         std::string(cell_kind_name(kind)) + "'");
  }
}

EquivResult check_isolation_equivalence(const Netlist& original, const Netlist& transformed) {
  return check_isolation_equivalence(original, transformed, BddBudget{});
}

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

  BddManager mgr(budget);
  VarSpace space{mgr, {}};
  seed_interleaved_order(ga.netlist, space);
  seed_interleaved_order(gb.netlist, space);
  const std::vector<BddRef> fa = build_net_bdds(ga.netlist, mgr, space);
  const std::vector<BddRef> fb = build_net_bdds(gb.netlist, mgr, space);

  // --- register obligations, matched by bit-net name -------------------
  // A register bit no output reads may be missing from the transformed
  // design: its value never reaches an observed function.
  const std::vector<char> read_a = registers_read_by_outputs(ga.netlist);
  std::unordered_map<std::string, CellId> regs_b;
  for (CellId id : gb.netlist.cell_ids()) {
    const Cell& c = gb.netlist.cell(id);
    if (c.kind == CellKind::Reg) regs_b.emplace(gb.netlist.net(c.out).name, id);
  }
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
    const BddRef en_a = fa[ca.ins[1].value()];
    const BddRef en_b = fb[cb.ins[1].value()];
    ++res.obligations_checked;
    if (!mgr.equal(en_a, en_b)) {
      res.reason = "enable functions differ for register bit '" + name + "'";
      return res;
    }
    const BddRef d_a = fa[ca.ins[0].value()];
    const BddRef d_b = fb[cb.ins[0].value()];
    ++res.obligations_checked;
    if (!mgr.is_zero(mgr.band(en_a, mgr.bxor(d_a, d_b)))) {
      res.reason = "register bit '" + name + "' can load a different value while enabled";
      return res;
    }
  }
  if (matched != regs_b.size()) {
    res.reason = "transformed design has extra registers";
    return res;
  }

  // --- primary outputs, by position ------------------------------------
  if (ga.netlist.primary_outputs().size() != gb.netlist.primary_outputs().size()) {
    res.reason = "primary output counts differ";
    return res;
  }
  for (std::size_t i = 0; i < ga.netlist.primary_outputs().size(); ++i) {
    const NetId na = ga.netlist.cell(ga.netlist.primary_outputs()[i]).ins[0];
    const NetId nb = gb.netlist.cell(gb.netlist.primary_outputs()[i]).ins[0];
    ++res.obligations_checked;
    if (!mgr.equal(fa[na.value()], fb[nb.value()])) {
      res.reason = "primary output bit " + std::to_string(i) + " ('" +
                   ga.netlist.net(na).name + "') differs";
      return res;
    }
  }

  res.equivalent = true;
  res.bdd_nodes = mgr.num_nodes();
  return res;
}

}  // namespace opiso
