// Tests for the BDD-based formal equivalence checker: correct isolation
// proves equivalent; deliberately broken "isolation" is caught. Also the
// net grounder it builds BDDs with: the one-bit rule per cell kind.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "designs/designs.hpp"
#include "isolation/activation.hpp"
#include "isolation/transform.hpp"
#include "verify/equiv.hpp"
#include "verify/grounder.hpp"

namespace opiso {
namespace {

struct Ctx {
  Netlist nl;
  ExprPool pool;
  NetVarMap vars;
  ActivationAnalysis aa;

  explicit Ctx(Netlist design) : nl(std::move(design)) {
    aa = derive_activation(nl, pool, vars);
  }
  CellId cell(const std::string& out_net) { return nl.net(nl.find_net(out_net)).driver; }
};

TEST(Verify, IdenticalDesignsAreEquivalent) {
  const Netlist a = make_fig1(6);
  const EquivResult res = check_isolation_equivalence(a, a);
  EXPECT_TRUE(res.equivalent) << res.reason;
  EXPECT_GT(res.obligations_checked, 0u);
}

TEST(Verify, ProvesFig1IsolationSafe) {
  const Netlist original = make_fig1(6);
  for (IsolationStyle style : {IsolationStyle::And, IsolationStyle::Or}) {
    Ctx c(original);
    (void)isolate_module(c.nl, c.pool, c.vars, c.cell("a1"),
                         c.aa.activation_of(c.nl, c.cell("a1")), style);
    (void)isolate_module(c.nl, c.pool, c.vars, c.cell("a0"),
                         c.aa.activation_of(c.nl, c.cell("a0")), style);
    const EquivResult res = check_isolation_equivalence(original, c.nl);
    EXPECT_TRUE(res.equivalent)
        << isolation_style_name(style) << ": " << res.reason;
  }
}

TEST(Verify, ProvesDesign1IsolationSafe) {
  // Width 4 keeps the array-multiplier BDDs small.
  const Netlist original = make_design1(4);
  Ctx c(original);
  for (const char* name : {"mul1", "add1", "add2", "sub2", "add3", "mul2"}) {
    const CellId cell = c.cell(name);
    (void)isolate_module(c.nl, c.pool, c.vars, cell, c.aa.activation_of(c.nl, cell),
                         IsolationStyle::And);
  }
  const EquivResult res = check_isolation_equivalence(original, c.nl);
  EXPECT_TRUE(res.equivalent) << res.reason;
}

TEST(Verify, CatchesWrongActivationFunction) {
  // Isolate a1 with an UNDER-approximate activation signal (G1 alone
  // misses the S1·!S0·G0 path): a register can then load a blocked
  // value; the checker must refuse.
  const Netlist original = make_fig1(4);
  Ctx c(original);
  const ExprRef wrong = c.pool.var(c.vars.var_of(c.nl, c.nl.find_net("G1")));
  (void)isolate_module(c.nl, c.pool, c.vars, c.cell("a1"), wrong, IsolationStyle::And);
  const EquivResult res = check_isolation_equivalence(original, c.nl);
  EXPECT_FALSE(res.equivalent);
  EXPECT_NE(res.reason.find("load a different value"), std::string::npos) << res.reason;
}

TEST(Verify, AcceptsOverApproximateActivation) {
  // Guarding with a looser condition (constant 1 = never block) is
  // functionally safe, merely useless for power.
  const Netlist original = make_fig1(4);
  Ctx c(original);
  (void)isolate_module(c.nl, c.pool, c.vars, c.cell("a1"), c.pool.const1(),
                       IsolationStyle::And);
  const EquivResult res = check_isolation_equivalence(original, c.nl);
  EXPECT_TRUE(res.equivalent) << res.reason;
}

TEST(Verify, CatchesFunctionalEdit) {
  // A real functional change (adder became subtractor) must be caught
  // even though the interface is identical.
  Netlist a;
  {
    NetId x = a.add_input("x", 4);
    NetId y = a.add_input("y", 4);
    NetId en = a.add_input("en", 1);
    NetId s = a.add_binop(CellKind::Add, "s", x, y);
    NetId r = a.add_reg("r", s, en);
    a.add_output("o", r);
  }
  Netlist b;
  {
    NetId x = b.add_input("x", 4);
    NetId y = b.add_input("y", 4);
    NetId en = b.add_input("en", 1);
    NetId s = b.add_binop(CellKind::Sub, "s", x, y);
    NetId r = b.add_reg("r", s, en);
    b.add_output("o", r);
  }
  const EquivResult res = check_isolation_equivalence(a, b);
  EXPECT_FALSE(res.equivalent);
}

TEST(Verify, CatchesEnableTampering) {
  Netlist a;
  NetId x = a.add_input("x", 4);
  NetId en = a.add_input("en", 1);
  NetId en2 = a.add_input("en2", 1);
  NetId r = a.add_reg("r", x, en);
  a.add_output("o", r);

  Netlist b;
  NetId xb = b.add_input("x", 4);
  NetId enb = b.add_input("en", 1);
  NetId en2b = b.add_input("en2", 1);
  NetId gated = b.add_binop(CellKind::And, "gated", enb, en2b);
  NetId rb = b.add_reg("r", xb, gated);
  b.add_output("o", rb);
  (void)en2;
  const EquivResult res = check_isolation_equivalence(a, b);
  EXPECT_FALSE(res.equivalent);
  EXPECT_NE(res.reason.find("enable"), std::string::npos) << res.reason;
}

/// x feeds register r, r feeds s through its D and the output reads s;
/// register u loads x and nothing reads it. Either of r and u may be
/// left out.
Netlist register_chain(bool with_r, bool with_u) {
  Netlist nl;
  const NetId x = nl.add_input("x", 4);
  const NetId en = nl.add_input("en", 1);
  const NetId s = nl.add_reg("s", with_r ? nl.add_reg("r", x, en) : x, en);
  if (with_u) (void)nl.add_reg("u", x, en);
  nl.add_output("o", s);
  return nl;
}

TEST(Verify, AcceptsAMissingRegisterNoOutputReads) {
  const EquivResult res =
      check_isolation_equivalence(register_chain(true, true), register_chain(true, false));
  EXPECT_TRUE(res.equivalent) << res.reason;
}

TEST(Verify, RejectsAMissingRegisterAnOutputReads) {
  // r reaches the output only through s's D; the checker must still
  // call it missing.
  const EquivResult res =
      check_isolation_equivalence(register_chain(true, true), register_chain(false, true));
  EXPECT_FALSE(res.equivalent);
  EXPECT_NE(res.reason.find("register bit 'r."), std::string::npos) << res.reason;
  EXPECT_NE(res.reason.find("missing"), std::string::npos) << res.reason;
}

/// An 8-bit x + y on the output, and optionally an 8x8 x * y nothing reads.
Netlist sum_with_dangling_product(bool with_product) {
  Netlist nl("sum");
  const NetId x = nl.add_input("x", 8);
  const NetId y = nl.add_input("y", 8);
  nl.add_output("o", nl.add_binop(CellKind::Add, "s", x, y));
  if (with_product) (void)nl.add_binop(CellKind::Mul, "p", x, y);
  nl.validate();
  return nl;
}

TEST(Verify, GroundsOnlyWhatTheObligationsRead) {
  // No obligation reads the multiplier, so its proof builds none of the
  // multiplier's nodes.
  const Netlist lean = sum_with_dangling_product(false);
  const Netlist dangling = sum_with_dangling_product(true);
  const EquivResult want = check_isolation_equivalence(lean, lean);
  const EquivResult got = check_isolation_equivalence(dangling, dangling);
  ASSERT_TRUE(want.equivalent) << want.reason;
  ASSERT_TRUE(got.equivalent) << got.reason;
  EXPECT_EQ(got.obligations_checked, want.obligations_checked);
  EXPECT_EQ(got.bdd_nodes, want.bdd_nodes);
}

/// One `kind` cell "c" over `arity` 1-bit primary inputs, driving "o".
Netlist one_cell(CellKind kind, int arity) {
  Netlist nl("one_cell");
  std::vector<NetId> ins;
  for (int p = 0; p < arity; ++p) ins.push_back(nl.add_input("i" + std::to_string(p), 1));
  (void)nl.add_cell(kind, "c", ins, nl.add_net("o", nl.infer_width(kind, ins)));
  nl.validate();
  return nl;
}

/// The BDD of `nl`'s net "o" with input pin p of cell "c" as variable p.
BddRef ground_one_cell(const Netlist& nl, BddManager& mgr) {
  const std::vector<NetId>& pins = nl.cell(nl.find_cell("c")).ins;
  NetGrounder grounder(nl, mgr, [&](NetId net, const Cell& drv) -> std::optional<BddRef> {
    if (drv.kind != CellKind::PrimaryInput) return std::nullopt;
    return mgr.var(static_cast<BoolVar>(std::find(pins.begin(), pins.end(), net) - pins.begin()));
  });
  return grounder.of_net(nl.find_net("o"));
}

TEST(Grounder, OneBitRuleIsTheCellSemantics) {
  // Every kind with a one-bit rule grounds to the truth table
  // cell_kind_eval gives at width 1.
  const std::vector<std::pair<CellKind, int>> kinds = {
      {CellKind::Buf, 1},    {CellKind::Not, 1},   {CellKind::And, 2},  {CellKind::Or, 2},
      {CellKind::Xor, 2},    {CellKind::Nand, 2},  {CellKind::Nor, 2},  {CellKind::Xnor, 2},
      {CellKind::Add, 2},    {CellKind::Sub, 2},   {CellKind::Eq, 2},   {CellKind::Lt, 2},
      {CellKind::IsoAnd, 2}, {CellKind::IsoOr, 2}, {CellKind::Mux2, 3}};
  for (const auto& [kind, arity] : kinds) {
    const Netlist nl = one_cell(kind, arity);
    BddManager mgr;
    const BddRef f = ground_one_cell(nl, mgr);
    for (unsigned row = 0; row < (1u << arity); ++row) {
      std::vector<std::uint64_t> in;
      for (int p = 0; p < arity; ++p) in.push_back((row >> p) & 1u);
      const bool want = cell_kind_eval(kind, 0, 1, in) != 0;
      const bool got = mgr.eval(f, [row](BoolVar v) { return ((row >> v) & 1u) != 0; });
      EXPECT_EQ(got, want) << cell_kind_name(kind) << " on row " << row;
    }
  }
}

TEST(Grounder, KindWithoutAOneBitRuleThrows) {
  for (const CellKind kind : {CellKind::Mul, CellKind::Latch}) {
    const Netlist nl = one_cell(kind, 2);
    BddManager mgr;
    EXPECT_THROW((void)ground_one_cell(nl, mgr), NetlistError) << cell_kind_name(kind);
  }
}

TEST(Verify, RefusesLatchDesigns) {
  const Netlist original = make_fig1(4);
  Ctx c(original);
  (void)isolate_module(c.nl, c.pool, c.vars, c.cell("a1"),
                       c.aa.activation_of(c.nl, c.cell("a1")), IsolationStyle::Latch);
  const EquivResult res = check_isolation_equivalence(original, c.nl);
  EXPECT_TRUE(res.unsupported);
  EXPECT_FALSE(res.equivalent);
  EXPECT_NE(res.reason.find("latch"), std::string::npos);
}

}  // namespace
}  // namespace opiso
