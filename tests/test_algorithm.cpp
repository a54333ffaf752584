// End-to-end tests of Algorithm 1: power goes down, outputs never
// change, the cost knobs (h_min, slack threshold, weights) gate
// decisions, and iteration logs are coherent.
#include <gtest/gtest.h>

#include "designs/designs.hpp"
#include "isolation/algorithm.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"
#include "verify/equiv.hpp"

namespace opiso {
namespace {

StimulusFactory design1_stimuli(double act_p1 = 0.2, double act_tr = 0.2) {
  return [=] {
    auto comp = std::make_unique<CompositeStimulus>(std::make_unique<UniformStimulus>(21));
    comp->route("act", std::make_unique<ControlledBitStimulus>(act_p1, act_tr, 22));
    comp->route("sel", std::make_unique<ControlledBitStimulus>(0.5, 0.4, 23));
    comp->route("g1", std::make_unique<ControlledBitStimulus>(0.4, 0.3, 24));
    comp->route("g2", std::make_unique<ControlledBitStimulus>(0.4, 0.3, 25));
    return comp;
  };
}

TEST(Algorithm, ReducesPowerOnDesign1) {
  IsolationOptions opt;
  opt.sim_cycles = 3000;
  const IsolationResult res = run_operand_isolation(make_design1(8), design1_stimuli(), opt);
  EXPECT_FALSE(res.records.empty());
  EXPECT_LT(res.power_after_mw, res.power_before_mw);
  EXPECT_GT(res.power_reduction_pct(), 10.0);
  EXPECT_GT(res.area_after_um2, res.area_before_um2);
}

TEST(Algorithm, TransformedDesignIsObservablyEquivalent) {
  for (IsolationStyle style :
       {IsolationStyle::And, IsolationStyle::Or, IsolationStyle::Latch}) {
    IsolationOptions opt;
    opt.style = style;
    opt.sim_cycles = 2000;
    const Netlist original = make_design1(8);
    const IsolationResult res = run_operand_isolation(original, design1_stimuli(), opt);
    ASSERT_FALSE(res.records.empty());
    testutil::expect_observably_equivalent(original, res.netlist, 0xFEED, 2500);
  }
}

TEST(Algorithm, Design2AllStylesReduce) {
  for (IsolationStyle style :
       {IsolationStyle::And, IsolationStyle::Or, IsolationStyle::Latch}) {
    IsolationOptions opt;
    opt.style = style;
    opt.sim_cycles = 3000;
    const Netlist original = make_design2(8, 2);
    const IsolationResult res = run_operand_isolation(
        original, [] { return std::make_unique<UniformStimulus>(31); }, opt);
    EXPECT_FALSE(res.records.empty());
    EXPECT_GT(res.power_reduction_pct(), 5.0) << isolation_style_name(style);
    testutil::expect_observably_equivalent(original, res.netlist, 0xABCD, 2500);
  }
}

TEST(Algorithm, HminInfiniteIsolatesNothing) {
  IsolationOptions opt;
  opt.h_min = 1e9;
  opt.sim_cycles = 1000;
  const IsolationResult res = run_operand_isolation(make_design1(8), design1_stimuli(), opt);
  EXPECT_TRUE(res.records.empty());
  EXPECT_NEAR(res.power_after_mw, res.power_before_mw, res.power_before_mw * 0.05);
  EXPECT_DOUBLE_EQ(res.area_after_um2, res.area_before_um2);
}

TEST(Algorithm, SlackThresholdVetoesEverything) {
  IsolationOptions opt;
  opt.slack_threshold_ns = 1e9;  // nothing can meet this
  opt.sim_cycles = 1000;
  const IsolationResult res = run_operand_isolation(make_design1(8), design1_stimuli(), opt);
  EXPECT_TRUE(res.records.empty());
  ASSERT_FALSE(res.iterations.empty());
  for (const CandidateEvaluation& ev : res.iterations[0].evaluations) {
    EXPECT_TRUE(ev.slack_vetoed);
  }
}

TEST(Algorithm, OnePerBlockPerIteration) {
  IsolationOptions opt;
  opt.sim_cycles = 2000;
  const IsolationResult res = run_operand_isolation(make_design1(8), design1_stimuli(), opt);
  for (const IterationLog& log : res.iterations) {
    // design1 has 4 combinational blocks.
    EXPECT_LE(log.num_isolated, 4u);
    std::set<int> blocks;
    for (const CandidateEvaluation& ev : log.evaluations) {
      if (ev.isolated_now) EXPECT_TRUE(blocks.insert(ev.block).second);
    }
  }
  // Stage 2 has several candidates: isolating them all takes > 1 iteration.
  std::size_t total = 0;
  for (const IterationLog& log : res.iterations) total += log.num_isolated;
  if (total > 4) EXPECT_GT(res.iterations.size(), 1u);
}

TEST(Algorithm, TerminatesWhenNoImprovement) {
  IsolationOptions opt;
  opt.sim_cycles = 1000;
  const IsolationResult res = run_operand_isolation(make_design1(8), design1_stimuli(), opt);
  ASSERT_FALSE(res.iterations.empty());
  EXPECT_EQ(res.iterations.back().num_isolated, 0u);
  EXPECT_LT(res.iterations.size(), 12u);
}

TEST(Algorithm, SlackDegradesButStaysPositive) {
  IsolationOptions opt;
  opt.sim_cycles = 2000;
  const IsolationResult res = run_operand_isolation(make_design1(8), design1_stimuli(), opt);
  EXPECT_GT(res.slack_before_ns, 0.0);
  EXPECT_GT(res.slack_after_ns, 0.0);  // design still meets timing (Sec. 6)
}

TEST(Algorithm, EvaluationsCarryPaperQuantities) {
  IsolationOptions opt;
  opt.sim_cycles = 2000;
  const IsolationResult res = run_operand_isolation(make_design1(8), design1_stimuli(), opt);
  ASSERT_FALSE(res.iterations.empty());
  bool saw_mul1 = false;
  for (const CandidateEvaluation& ev : res.iterations[0].evaluations) {
    EXPECT_GE(ev.pr_redundant, 0.0);
    EXPECT_LE(ev.pr_redundant, 1.0);
    EXPECT_GE(ev.r_area, 0.0);
    EXPECT_FALSE(ev.activation_str.empty());
    if (ev.cell_name == "b:mul1") {
      saw_mul1 = true;
      // act has Pr[1] = 0.2 -> mostly redundant.
      EXPECT_GT(ev.pr_redundant, 0.6);
      EXPECT_EQ(ev.activation_str, "act");
    }
  }
  EXPECT_TRUE(saw_mul1);
}

TEST(Algorithm, LowerActivityMeansMoreSavings) {
  IsolationOptions opt;
  opt.sim_cycles = 3000;
  const IsolationResult busy =
      run_operand_isolation(make_design1(8), design1_stimuli(0.9, 0.1), opt);
  const IsolationResult idle =
      run_operand_isolation(make_design1(8), design1_stimuli(0.05, 0.05), opt);
  EXPECT_GT(idle.power_reduction_pct(), busy.power_reduction_pct());
}

TEST(Algorithm, RequiresStimulusFactory) {
  EXPECT_THROW((void)run_operand_isolation(make_design1(8), nullptr, {}), Error);
}

TEST(Algorithm, BddBudgetDegradesGracefullyAndStaysEquivalent) {
  // Resource-guard contract (robustness layer): with a node budget too
  // small for any real activation function, the canonical BDD
  // simplification falls back to the structurally derived expression —
  // and the transformed design must still be *provably* equivalent to
  // the original, exactly like the unbounded run. Checked on all three
  // paper designs at formally tractable widths.
  struct Case {
    const char* name;
    std::function<Netlist()> make;
    StimulusFactory stimuli;
  };
  const StimulusFactory uniform = [] { return std::make_unique<UniformStimulus>(7); };
  // fig1 is multiplier-free, so the full paper width stays formally
  // tractable; design1/design2 carry multipliers and get width 4 to
  // keep the equivalence checker's BDDs small.
  const Case kCases[] = {
      {"fig1", [] { return make_fig1(8); }, uniform},
      {"design1", [] { return make_design1(4); }, design1_stimuli()},
      {"design2", [] { return make_design2(4, 2); }, uniform},
  };
  obs::metrics().counter("isolate.bdd_budget_fallbacks").reset();
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.name);
    IsolationOptions opt;
    opt.style = IsolationStyle::And;  // latch-free: formally checkable
    opt.sim_cycles = 1500;
    opt.bdd_node_budget = 3;  // any second BDD node trips the budget
    const Netlist original = c.make();
    const IsolationResult budgeted = run_operand_isolation(original, c.stimuli, opt);
    opt.bdd_node_budget = 0;  // unlimited
    const IsolationResult unbounded = run_operand_isolation(original, c.stimuli, opt);
    ASSERT_FALSE(budgeted.records.empty());
    // Same isolation decisions either way: the budget only affects the
    // *form* of the synthesized activation, never the candidate choice.
    EXPECT_EQ(budgeted.records.size(), unbounded.records.size());
    const EquivResult eq_budgeted = check_isolation_equivalence(original, budgeted.netlist);
    EXPECT_TRUE(eq_budgeted.equivalent) << eq_budgeted.reason;
    const EquivResult eq_unbounded = check_isolation_equivalence(original, unbounded.netlist);
    EXPECT_TRUE(eq_unbounded.equivalent) << eq_unbounded.reason;
  }
  // The degraded path must actually have been exercised.
  EXPECT_GT(obs::metrics().counter("isolate.bdd_budget_fallbacks").value(), 0u);
}

}  // namespace
}  // namespace opiso
