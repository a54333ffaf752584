// Tests for library features beyond the core algorithm: BDD-based
// activation simplification, per-candidate style choice, net/cell
// renaming, and the isolation report formatter.
#include <gtest/gtest.h>

#include <sstream>

#include "boolfn/bdd.hpp"
#include "designs/designs.hpp"
#include "isolation/report.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "test_util.hpp"

namespace opiso {
namespace {

TEST(SimplifyExpr, CollapsesRedundantTerms) {
  ExprPool p;
  BddManager m;
  // a·b + a·!b + a  ->  a
  ExprRef a = p.var(0), b = p.var(1);
  ExprRef messy = p.lor(p.lor(p.land(a, b), p.land(a, p.lnot(b))), a);
  // The pool's local rules may already shrink this; force redundancy
  // through distinct structure.
  ExprRef messy2 = p.lor(p.land(a, b), p.land(a, p.lnot(b)));
  ExprRef s = m.simplify_expr(p, messy2);
  EXPECT_EQ(s, a);
  EXPECT_LE(p.literal_count(m.simplify_expr(p, messy)), p.literal_count(messy));
}

TEST(SimplifyExpr, NeverIncreasesLiteralCount) {
  ExprPool p;
  BddManager m;
  // XOR chains blow up as SOP; simplify_expr must keep the original.
  ExprRef x = p.var(0);
  for (BoolVar v = 1; v < 6; ++v) {
    ExprRef y = p.var(v);
    x = p.lor(p.land(x, p.lnot(y)), p.land(p.lnot(x), y));
  }
  const ExprRef s = m.simplify_expr(p, x);
  EXPECT_LE(p.literal_count(s), p.literal_count(x));
  // And semantics are preserved.
  for (int mt = 0; mt < 64; ++mt) {
    auto assign = [&](BoolVar v) { return (mt >> v) & 1; };
    EXPECT_EQ(p.eval(s, assign), p.eval(x, assign));
  }
}

TEST(Rename, NetAndCellRenameUpdateLookup) {
  Netlist nl;
  NetId a = nl.add_input("a", 4);
  NetId b = nl.add_input("b", 4);
  NetId s = nl.add_binop(CellKind::Add, "adder", a, b);
  nl.rename_net(s, "total");
  EXPECT_FALSE(nl.find_net("s").valid());
  EXPECT_EQ(nl.find_net("total"), s);
  nl.rename_cell(nl.net(s).driver, "sum_cell");
  EXPECT_EQ(nl.find_cell("sum_cell"), nl.net(s).driver);
  EXPECT_THROW(nl.rename_net(s, "a"), Error);    // collision
  EXPECT_THROW(nl.rename_net(s, ""), Error);     // empty
  nl.validate();
}

StimulusFactory design1_stimuli() {
  return [] {
    auto comp = std::make_unique<CompositeStimulus>(std::make_unique<UniformStimulus>(121));
    comp->route("act", std::make_unique<ControlledBitStimulus>(0.2, 0.15, 122));
    return comp;
  };
}

TEST(MixedStyle, PicksAStylePerCandidate) {
  IsolationOptions opt;
  opt.choose_style_per_candidate = true;
  opt.sim_cycles = 3000;
  const Netlist original = make_design1(8);
  const IsolationResult res = run_operand_isolation(original, design1_stimuli(), opt);
  ASSERT_FALSE(res.records.empty());
  // The result is functionally clean regardless of the mixture.
  testutil::expect_observably_equivalent(original, res.netlist, 0xD00D, 2500);
  // Evaluations carry the style they were costed for.
  for (const IterationLog& log : res.iterations) {
    for (const CandidateEvaluation& ev : log.evaluations) {
      (void)ev.style;  // present and well-formed by construction
    }
  }
}

TEST(MixedStyle, AtLeastAsGoodAsWorstFixedStyle) {
  const Netlist original = make_design1(8);
  double worst_fixed = 1e18;
  for (IsolationStyle style :
       {IsolationStyle::And, IsolationStyle::Or, IsolationStyle::Latch}) {
    IsolationOptions opt;
    opt.style = style;
    opt.sim_cycles = 3000;
    const IsolationResult res = run_operand_isolation(original, design1_stimuli(), opt);
    worst_fixed = std::min(worst_fixed, res.power_reduction_pct());
  }
  IsolationOptions mixed;
  mixed.choose_style_per_candidate = true;
  mixed.sim_cycles = 3000;
  const IsolationResult res = run_operand_isolation(original, design1_stimuli(), mixed);
  EXPECT_GE(res.power_reduction_pct(), worst_fixed - 1.0);  // sampling slack
}

TEST(Report, SummaryMentionsEverything) {
  IsolationOptions opt;
  opt.sim_cycles = 2000;
  const IsolationResult res = run_operand_isolation(make_design1(8), design1_stimuli(), opt);
  const std::string summary = format_isolation_summary(res);
  EXPECT_NE(summary.find("power:"), std::string::npos);
  EXPECT_NE(summary.find("area:"), std::string::npos);
  EXPECT_NE(summary.find("isolated modules:"), std::string::npos);
  EXPECT_NE(summary.find("AND bank"), std::string::npos);
  std::ostringstream table;
  obs::write_iteration_table(table, obs::build_run_report(res, opt));
  const std::string log = table.str();
  EXPECT_NE(log.find("iteration 0"), std::string::npos);
  EXPECT_NE(log.find("Pr(!f)="), std::string::npos);
  EXPECT_NE(log.find("AS="), std::string::npos);
}

TEST(SimplifyActivation, OffStillWorks) {
  // A one-node BDD budget fails every canonical simplification, so each
  // bank synthesizes the unsimplified activation function.
  IsolationOptions opt;
  opt.bdd_node_budget = 1;
  opt.sim_cycles = 2000;
  const Netlist original = make_design1(8);
  const std::uint64_t fallbacks = obs::metrics().counter("isolate.bdd_budget_fallbacks").value();
  const IsolationResult res = run_operand_isolation(original, design1_stimuli(), opt);
  EXPECT_FALSE(res.records.empty());
  EXPECT_EQ(obs::metrics().counter("isolate.bdd_budget_fallbacks").value() - fallbacks,
            res.records.size());
  testutil::expect_observably_equivalent(original, res.netlist, 0xFACE, 2000);
}

}  // namespace
}  // namespace opiso
