#include "verify/grounder.hpp"

#include <string>
#include <utility>

#include "util/error.hpp"

namespace opiso {

namespace {

/// BDD of the one-bit cell `c` over its input pins' BDDs in `net_bdd`.
/// Sources and state are leaves and constants fold before this is
/// reached; any other kind without a one-bit rule throws.
BddRef one_bit_cell_bdd(BddManager& mgr, const Cell& c, const std::vector<BddRef>& net_bdd) {
  const auto in = [&](std::size_t pin) { return net_bdd[c.ins[pin].value()]; };
  switch (c.kind) {
    case CellKind::Buf: return in(0);
    case CellKind::Not: return mgr.bnot(in(0));
    case CellKind::And:
    case CellKind::IsoAnd: return mgr.band(in(0), in(1));
    case CellKind::Or: return mgr.bor(in(0), in(1));
    case CellKind::Xor:
    case CellKind::Add:
    case CellKind::Sub: return mgr.bxor(in(0), in(1));
    case CellKind::Nand: return mgr.bnot(mgr.band(in(0), in(1)));
    case CellKind::Nor: return mgr.bnot(mgr.bor(in(0), in(1)));
    case CellKind::Xnor:
    case CellKind::Eq: return mgr.bnot(mgr.bxor(in(0), in(1)));
    case CellKind::Lt: return mgr.band(mgr.bnot(in(0)), in(1));
    case CellKind::Mux2: return mgr.ite(in(0), in(2), in(1));
    case CellKind::IsoOr: return mgr.bor(in(0), mgr.bnot(in(1)));
    default:
      throw NetlistError("no one-bit BDD rule for cell kind '" +
                         std::string(cell_kind_name(c.kind)) + "'");
  }
}

}  // namespace

NetGrounder::NetGrounder(const Netlist& nl, BddManager& mgr, Leaf leaf)
    : nl_(nl), mgr_(mgr), leaf_(std::move(leaf)), memo_(nl.num_nets(), BddRef::invalid()) {}

BddRef NetGrounder::of_net(NetId net) {
  // Depth first over an explicit stack. A driver's inputs are pushed in
  // pin order, so its last pin is grounded first: a leaf rule that
  // allocates variables sees the nets in one fixed order.
  std::vector<NetId> stack{net};
  while (!stack.empty()) {
    const NetId n = stack.back();
    if (memo_[n.value()].valid()) {
      stack.pop_back();
      continue;
    }
    const Cell& drv = nl_.cell(nl_.net(n).driver);
    if (drv.kind == CellKind::Constant) {
      memo_[n.value()] = (drv.param & 1u) != 0 ? mgr_.one() : mgr_.zero();
      stack.pop_back();
      continue;
    }
    if (const std::optional<BddRef> leaf = leaf_(n, drv)) {
      memo_[n.value()] = *leaf;
      stack.pop_back();
      continue;
    }
    bool ready = true;
    for (NetId in : drv.ins) {
      if (!memo_[in.value()].valid()) {
        stack.push_back(in);
        ready = false;
      }
    }
    if (!ready) continue;
    memo_[n.value()] = one_bit_cell_bdd(mgr_, drv, memo_);
    stack.pop_back();
  }
  return memo_[net.value()];
}

}  // namespace opiso
