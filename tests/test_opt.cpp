// Tests for optimize(), the e-graph clean-up pass: constant folding,
// the identity rules, sharing of identical cells and removal of what no
// output reads, plus the global property that optimization never
// changes observed behavior.
#include <gtest/gtest.h>

#include "designs/designs.hpp"
#include "opt/rewrite_rules.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"
#include "verify/equiv.hpp"

namespace opiso {
namespace {

std::size_t count_kind(const Netlist& nl, CellKind kind) {
  std::size_t n = 0;
  for (CellId id : nl.cell_ids()) {
    if (nl.cell(id).kind == kind) ++n;
  }
  return n;
}

/// x + (r & 0): the register r is read only through an And that folds
/// to zero, so neither r nor the constant has a reader once folded.
Netlist dead_state_design() {
  Netlist nl;
  const NetId x = nl.add_input("x", 8);
  const NetId en = nl.add_input("en", 1);
  const NetId z = nl.add_const("z", 0, 8);
  const NetId r = nl.add_reg("r", x, en);
  const NetId rz = nl.add_binop(CellKind::And, "rz", r, z);
  nl.add_output("o", nl.add_binop(CellKind::Add, "sum", x, rz));
  return nl;
}

TEST(Opt, FoldsConstantArithmetic) {
  Netlist nl;
  NetId a = nl.add_const("a", 20, 8);
  NetId b = nl.add_const("b", 22, 8);
  NetId sum = nl.add_binop(CellKind::Add, "sum", a, b);
  nl.add_output("o", sum);
  const Netlist o = optimize(nl);
  EXPECT_EQ(o.num_cells(), 2u);
  // The PO is fed by a constant-42 cell.
  const Cell& po = o.cell(o.primary_outputs()[0]);
  const Cell& drv = o.cell(o.net(po.ins[0]).driver);
  EXPECT_EQ(drv.kind, CellKind::Constant);
  EXPECT_EQ(drv.param, 42u);
}

TEST(Opt, FoldsThroughChains) {
  Netlist nl;
  NetId a = nl.add_const("a", 3, 8);
  NetId b = nl.add_const("b", 5, 8);
  NetId p = nl.add_binop(CellKind::Mul, "p", a, b);     // 15, width 16
  NetId s = nl.add_shift(CellKind::Shl, "s", p, 2);     // 60
  NetId n = nl.add_unop(CellKind::Not, "n", s);
  nl.add_output("o", n);
  const Netlist o = optimize(nl);
  EXPECT_EQ(o.num_cells(), 2u);
  const Cell& drv = o.cell(o.net(o.cell(o.primary_outputs()[0]).ins[0]).driver);
  EXPECT_EQ(drv.param, (~std::uint64_t{60}) & 0xFFFF);
}

TEST(Opt, SimplifiesGateIdentities) {
  Netlist nl;
  NetId a = nl.add_input("a", 8);
  NetId zero = nl.add_const("zero", 0, 8);
  NetId ones = nl.add_const("ones", 0xFF, 8);
  NetId and1 = nl.add_binop(CellKind::And, "and1", a, ones);  // -> a
  NetId or1 = nl.add_binop(CellKind::Or, "or1", and1, zero);  // -> a
  NetId add1 = nl.add_binop(CellKind::Add, "add1", or1, zero);  // -> a
  nl.add_output("o", add1);
  const Netlist o = optimize(nl);
  EXPECT_EQ(o.num_cells(), 2u);
  // Output is driven directly by the primary input.
  const Cell& po = o.cell(o.primary_outputs()[0]);
  EXPECT_EQ(o.cell(o.net(po.ins[0]).driver).kind, CellKind::PrimaryInput);
}

TEST(Opt, FoldsMuxWithConstantSelect) {
  Netlist nl;
  NetId a = nl.add_input("a", 8);
  NetId b = nl.add_input("b", 8);
  NetId sel = nl.add_const("sel", 1, 1);
  NetId m = nl.add_mux2("m", sel, a, b);
  nl.add_output("o", m);
  const Netlist o = optimize(nl);
  const Cell& po = o.cell(o.primary_outputs()[0]);
  EXPECT_EQ(o.net(po.ins[0]).name, "b");  // sel = 1 selects the B leg
}

TEST(Opt, BypassesBuffersAndDoubleNegation) {
  Netlist nl;
  NetId a = nl.add_input("a", 4);
  NetId b1 = nl.add_unop(CellKind::Buf, "b1", a);
  NetId n1 = nl.add_unop(CellKind::Not, "n1", b1);
  NetId n2 = nl.add_unop(CellKind::Not, "n2", n1);
  nl.add_output("o", n2);
  const Netlist o = optimize(nl);
  const Cell& po = o.cell(o.primary_outputs()[0]);
  EXPECT_EQ(o.cell(o.net(po.ins[0]).driver).kind, CellKind::PrimaryInput);
}

TEST(Opt, CseMergesIdenticalCells) {
  Netlist nl;
  NetId a = nl.add_input("a", 8);
  NetId b = nl.add_input("b", 8);
  NetId s1 = nl.add_binop(CellKind::Add, "s1", a, b);
  NetId s2 = nl.add_binop(CellKind::Add, "s2", a, b);  // identical
  NetId x = nl.add_binop(CellKind::Xor, "x", s1, s2);  // -> const 0
  nl.add_output("o", x);
  nl.add_output("o1", s1);
  nl.add_output("o2", s2);
  const Netlist o = optimize(nl);
  EXPECT_EQ(count_kind(o, CellKind::Add), 1u);
  EXPECT_EQ(o.cell(o.primary_outputs()[1]).ins[0], o.cell(o.primary_outputs()[2]).ins[0]);
  const Cell& drv = o.cell(o.net(o.cell(o.primary_outputs()[0]).ins[0]).driver);
  EXPECT_EQ(drv.kind, CellKind::Constant);
  EXPECT_EQ(drv.param, 0u);
}

TEST(Opt, RemovesDeadLogic) {
  Netlist nl;
  NetId a = nl.add_input("a", 8);
  NetId b = nl.add_input("b", 8);
  NetId live = nl.add_binop(CellKind::Add, "live", a, b);
  nl.add_binop(CellKind::Mul, "dead_mul", a, b);  // unconnected
  NetId en = nl.add_input("en", 1);
  nl.add_reg("dead_reg", live, en);               // state never observed
  nl.add_output("o", live);
  const Netlist o = optimize(nl);
  EXPECT_EQ(o.num_cells(), 5u);  // three PIs, the adder, the PO
  EXPECT_FALSE(o.find_net("dead_mul").valid());
  EXPECT_FALSE(o.find_net("dead_reg").valid());
  // Interface (all PIs, the PO) is preserved.
  EXPECT_EQ(o.primary_inputs().size(), nl.primary_inputs().size());

  // A register whose only reader folds away goes with it.
  const Netlist folded = optimize(dead_state_design());
  EXPECT_EQ(folded.num_cells(), 3u);  // x, en, the PO fed by x
  EXPECT_EQ(count_kind(folded, CellKind::Reg), 0u);
  EXPECT_EQ(folded.net(folded.cell(folded.primary_outputs()[0]).ins[0]).name, "x");
}

TEST(Opt, TransparentIsolationCellFoldsAway) {
  Netlist nl;
  NetId a = nl.add_input("a", 8);
  NetId b = nl.add_input("b", 8);
  NetId one = nl.add_const("one", 1, 1);
  NetId blk = nl.add_iso(CellKind::IsoAnd, "blk", a, one);
  NetId sum = nl.add_binop(CellKind::Add, "sum", blk, b);
  nl.add_output("o", sum);
  const Netlist o = optimize(nl);
  const Cell& adder = o.cell(o.net(o.find_net("sum")).driver);
  EXPECT_EQ(o.net(adder.ins[0]).name, "a");
}

TEST(Opt, KeepsRegisterFeedbackLoops) {
  Netlist nl;
  NetId one = nl.add_const("one", 1, 1);
  NetId d0 = nl.add_const("d0", 0, 8);
  NetId acc = nl.add_reg("acc", d0, one);
  NetId in = nl.add_input("in", 8);
  NetId sum = nl.add_binop(CellKind::Add, "sum", acc, in);
  nl.reconnect_input(nl.net(acc).driver, 0, sum);
  nl.add_output("o", acc);
  const Netlist o = optimize(nl);
  // Behavior preserved: accumulate 3 times.
  Simulator sim(o);
  ConstantStimulus stim;
  stim.set("in", 7);
  sim.run(stim, 4);
  EXPECT_EQ(sim.net_value(o.find_net("acc")), 21u);
}

class OptEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(OptEquivalence, OptimizedDesignIsObservablyEquivalent) {
  Netlist nl;
  const std::string which = GetParam();
  if (which == "fig1") nl = make_fig1(8);
  if (which == "design1") nl = make_design1(8);
  if (which == "design2") nl = make_design2(8, 2);
  if (which == "parametric") nl = make_parametric_datapath({3, 3, 7, true});
  const Netlist o = optimize(nl);
  EXPECT_LE(o.num_cells(), nl.num_cells());
  testutil::expect_observably_equivalent(nl, o, 0xBEEF, 2500);
  if (which == "parametric") {
    // Each lane's last-stage rb register has no reader, so optimize
    // drops it; verify::equiv accepts a missing register no output reads.
    EXPECT_EQ(count_kind(o, CellKind::Reg), count_kind(nl, CellKind::Reg) - 3);
  }
  const EquivResult eq = check_isolation_equivalence(nl, o);
  EXPECT_TRUE(eq.equivalent) << eq.reason;
}

INSTANTIATE_TEST_SUITE_P(Designs, OptEquivalence,
                         ::testing::Values("fig1", "design1", "design2", "parametric"));

TEST(Opt, IdempotentOnBenchmarks) {
  const Netlist nl = make_design2(8, 2);
  const Netlist once = optimize(nl);
  const Netlist twice = optimize(once);
  EXPECT_EQ(twice.num_cells(), once.num_cells());
}

// Regression: optimize() used to leave the 1-bit placeholder constant
// from register reconstruction dangling in its output, and to keep a
// constant whose only reader folded away. Every constant in the
// optimized netlist must have a reader.
TEST(Opt, NoDanglingPlaceholderConstants) {
  for (const Netlist& nl : {make_design1(8), make_design2(8, 4), dead_state_design()}) {
    const Netlist o = optimize(nl);
    std::vector<int> readers(o.num_nets(), 0);
    for (CellId id : o.cell_ids()) {
      for (NetId in : o.cell(id).ins) ++readers[in.value()];
    }
    for (CellId id : o.cell_ids()) {
      const Cell& c = o.cell(id);
      if (c.kind != CellKind::Constant) continue;
      EXPECT_GT(readers[c.out.value()], 0)
          << "dangling constant '" << c.name << "' in optimized " << nl.name();
    }
  }
}

// Regression: IsoOr with a constant-0 activation forces all ones — the
// symmetric fold of IsoAnd's constant-0 → 0.
TEST(Opt, IsoOrConstantZeroActivationFoldsToOnes) {
  Netlist nl;
  NetId d = nl.add_input("d", 8);
  NetId zero = nl.add_const("zero", 0, 1);
  NetId blk = nl.add_iso(CellKind::IsoOr, "blk", d, zero);
  nl.add_output("o", blk);
  const Netlist o = optimize(nl);
  const Cell& po = o.cell(o.primary_outputs()[0]);
  const Cell& drv = o.cell(o.net(po.ins[0]).driver);
  EXPECT_EQ(drv.kind, CellKind::Constant);
  EXPECT_EQ(drv.param, 0xFFu);
  testutil::expect_observably_equivalent(nl, o, 0x150A, 200);
}

// Regression: And with an all-ones constant *narrower* than the output
// word is a mask (the constant zero-extends), not an identity.
TEST(Opt, NarrowOnesConstantIsNotAnAndIdentity) {
  Netlist nl;
  NetId x = nl.add_input("x", 8);
  NetId ones4 = nl.add_const("ones4", 0xF, 4);
  NetId y = nl.add_binop(CellKind::And, "y", x, ones4);
  nl.add_output("o", y);
  const Netlist o = optimize(nl);
  Simulator sim(o);
  ConstantStimulus stim;
  stim.set("x", 0xAB);
  sim.run(stim, 2);
  EXPECT_EQ(sim.net_value(o.cell(o.primary_outputs()[0]).ins[0]), 0x0Bu);
}

// Regression: sharing is keyed on the output width too — two constants
// with equal values but different widths are distinct (their widths
// propagate into downstream truncation behavior).
TEST(Opt, CseKeepsSameValueConstantsOfDifferentWidthsApart) {
  Netlist nl;
  NetId a = nl.add_input("a", 4);
  NetId b = nl.add_input("b", 8);
  NetId c4 = nl.add_const("c4", 7, 4);
  NetId c8 = nl.add_const("c8", 7, 8);
  NetId s1 = nl.add_binop(CellKind::Add, "s1", a, c4);  // width 4: wraps
  NetId s2 = nl.add_binop(CellKind::Add, "s2", b, c8);  // width 8
  nl.add_output("o1", s1);
  nl.add_output("o2", s2);
  const Netlist o = optimize(nl);
  Simulator sim(o);
  ConstantStimulus stim;
  stim.set("a", 15);
  stim.set("b", 15);
  sim.run(stim, 2);
  EXPECT_EQ(sim.net_value(o.cell(o.primary_outputs()[0]).ins[0]), 6u);
  EXPECT_EQ(sim.net_value(o.cell(o.primary_outputs()[1]).ins[0]), 22u);
  testutil::expect_observably_equivalent(nl, o, 0xC5E1, 200);
}

}  // namespace
}  // namespace opiso
