// Tests for the BDD-based formal equivalence checker: correct isolation
// proves equivalent; deliberately broken "isolation" is caught.
#include <gtest/gtest.h>

#include "designs/designs.hpp"
#include "isolation/activation.hpp"
#include "isolation/transform.hpp"
#include "verify/equiv.hpp"

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
