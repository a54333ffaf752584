// Tests for the Sec.-2 baselines: guarded evaluation's existing-signal
// coverage gap and control-signal gating's structural blind spots.
#include <gtest/gtest.h>

#include "baseline/control_signal_gating.hpp"
#include "baseline/guarded_eval.hpp"
#include "designs/designs.hpp"
#include "reference_simulator.hpp"

namespace opiso {
namespace {

StimulusFactory uniform_stimuli(std::uint64_t seed) {
  return [seed] { return std::make_unique<UniformStimulus>(seed); };
}

TEST(GuardedEval, Fig1GuardsA0ButNotA1) {
  // AS_a0 = G0: the existing signal G0 works as guard. AS_a1 is a
  // compound function implied by no single existing signal — exactly
  // the coverage gap the paper describes.
  const GuardedEvalResult res =
      run_guarded_evaluation(make_fig1(8), uniform_stimuli(41), {});
  EXPECT_EQ(res.num_candidates, 2u);
  EXPECT_EQ(res.num_guarded, 1u);
  ASSERT_EQ(res.guarded.size(), 1u);
  EXPECT_EQ(res.netlist.cell(res.guarded[0]).name, "b:a0");
  ASSERT_EQ(res.unguarded.size(), 1u);
  EXPECT_EQ(res.netlist.cell(res.unguarded[0]).name, "b:a1");
}

TEST(GuardedEval, GuardedModulePreservesOutputs) {
  const Netlist original = make_fig1(8);
  const GuardedEvalResult res = run_guarded_evaluation(original, uniform_stimuli(43), {});
  // Lockstep comparison of primary outputs.
  Simulator sim_a(original);
  Simulator sim_b(res.netlist);
  UniformStimulus sa(99), sb(99);
  for (int cycle = 0; cycle < 2000; ++cycle) {
    sim_a.run(sa, 1);
    sim_b.run(sb, 1);
    for (std::size_t i = 0; i < original.primary_outputs().size(); ++i) {
      ASSERT_EQ(sim_a.net_value(original.cell(original.primary_outputs()[i]).ins[0]),
                sim_b.net_value(res.netlist.cell(res.netlist.primary_outputs()[i]).ins[0]))
          << "cycle " << cycle;
    }
  }
}

TEST(GuardedEval, Design1GuardsAreLooseConjuncts) {
  // Every design1 activation function is a product, so some existing
  // conjunct always works as a guard — coverage is full — but e.g. the
  // guard for add2 is the single signal g1 while the true activation is
  // !sel·g2·g1: the guard blocks far fewer redundant cycles.
  const StimulusFactory stimuli = [] {
    auto comp = std::make_unique<CompositeStimulus>(std::make_unique<UniformStimulus>(47));
    comp->route("act", std::make_unique<ControlledBitStimulus>(0.25, 0.1, 48));
    return comp;
  };
  const GuardedEvalResult res = run_guarded_evaluation(make_design1(8), stimuli, {});
  EXPECT_GT(res.num_candidates, 0u);
  EXPECT_DOUBLE_EQ(res.coverage(), 1.0);

  IsolationOptions opt;
  opt.sim_cycles = 4096;
  const IsolationResult full = run_operand_isolation(make_design1(8), stimuli, opt);
  EXPECT_GT(full.power_reduction_pct(), res.power_reduction_pct());
}

TEST(Csg, PiFedCandidatesAreBlindSpot) {
  // design1's stage-1 modules take data straight from primary inputs:
  // CSG has no register to gate ("no power savings in combinational
  // logic that is directly fed by primary inputs", Sec. 2).
  const CsgResult res = run_control_signal_gating(make_design1(8), uniform_stimuli(51), {});
  bool mul1_uncovered = false;
  for (std::size_t i = 0; i < res.uncovered.size(); ++i) {
    if (res.netlist.cell(res.uncovered[i]).name == "b:mul1") {
      mul1_uncovered = true;
      EXPECT_NE(res.uncovered_reasons[i].find("primary input"), std::string::npos);
    }
  }
  EXPECT_TRUE(mul1_uncovered);
}

TEST(Csg, MultiFanoutRegisterIsBlindSpot) {
  // design2: the accumulator register feeds the adder, the subtractor
  // and the output mux — gating it for the adder would corrupt the
  // others (the paper's Fig.-7-of-[4] case).
  const CsgResult res = run_control_signal_gating(make_design2(8, 1), uniform_stimuli(53), {});
  bool sum_uncovered = false;
  for (std::size_t i = 0; i < res.uncovered.size(); ++i) {
    if (res.netlist.cell(res.uncovered[i]).name == "b:l0_sum") {
      sum_uncovered = true;
      EXPECT_NE(res.uncovered_reasons[i].find("fanout"), std::string::npos);
    }
  }
  EXPECT_TRUE(sum_uncovered);
}

TEST(Csg, CoversCleanRegisterFedModule) {
  // reg -> adder -> reg with single-fanout source registers: coverable.
  Netlist nl;
  NetId d0 = nl.add_input("d0", 8);
  NetId d1 = nl.add_input("d1", 8);
  NetId en_in = nl.add_input("en_in", 1);
  NetId en_out = nl.add_input("en_out", 1);
  NetId ra = nl.add_reg("ra", d0, en_in);
  NetId rb = nl.add_reg("rb", d1, en_in);
  NetId sum = nl.add_binop(CellKind::Add, "sum", ra, rb);
  NetId ro = nl.add_reg("ro", sum, en_out);
  nl.add_output("o", ro);

  CsgOptions opt;
  const CsgResult res = run_control_signal_gating(nl, uniform_stimuli(55), opt);
  EXPECT_EQ(res.num_candidates, 1u);
  EXPECT_EQ(res.num_covered, 1u);
  // The source registers' enables are now gated with AS.
  const Cell& ra_cell = res.netlist.cell(res.netlist.find_cell("r:ra"));
  EXPECT_EQ(res.netlist.cell(res.netlist.net(ra_cell.ins[1]).driver).kind, CellKind::And);
}

TEST(Csg, GatingReducesPowerWhenMostlyIdle) {
  Netlist nl;
  NetId d0 = nl.add_input("d0", 12);
  NetId d1 = nl.add_input("d1", 12);
  NetId en_in = nl.add_input("en_in", 1);
  NetId en_out = nl.add_input("en_out", 1);
  NetId ra = nl.add_reg("ra", d0, en_in);
  NetId rb = nl.add_reg("rb", d1, en_in);
  NetId prod = nl.add_binop(CellKind::Mul, "prod", ra, rb);
  NetId ro = nl.add_reg("ro", prod, en_out);
  nl.add_output("o", ro);

  const StimulusFactory stimuli = [] {
    auto comp = std::make_unique<CompositeStimulus>(std::make_unique<UniformStimulus>(61));
    // Output rarely observed: the multiplier is mostly redundant.
    comp->route("en_out", std::make_unique<ControlledBitStimulus>(0.1, 0.1, 62));
    return comp;
  };
  CsgOptions opt;
  opt.sim_cycles = 8000;
  const CsgResult res = run_control_signal_gating(nl, stimuli, opt);
  EXPECT_EQ(res.num_covered, 1u);
  EXPECT_GT(res.power_reduction_pct(), 5.0);
}

TEST(Baselines, OperandIsolationCoversWhatBaselinesCannot) {
  // The headline qualitative claim of Sec. 2 on fig1: the constructive
  // approach isolates both adders; guarded evaluation must skip a1 (its
  // disjunctive activation is implied by no existing signal); CSG skips
  // both (the datapath operands come straight from primary inputs).
  const Netlist f1 = make_fig1(8);
  const GuardedEvalResult ge = run_guarded_evaluation(f1, uniform_stimuli(71), {});
  const CsgResult csg = run_control_signal_gating(f1, uniform_stimuli(72), {});

  IsolationOptions opt;
  opt.sim_cycles = 2000;
  opt.omega_a = 0.0;  // coverage comparison: ignore area cost
  opt.h_min = -1e9;   // isolate everything legal
  const IsolationResult full = run_operand_isolation(
      f1, [] { return std::make_unique<UniformStimulus>(73); }, opt);

  EXPECT_EQ(full.records.size(), 2u);
  EXPECT_EQ(ge.num_guarded, 1u);
  EXPECT_EQ(csg.num_covered, 0u);
}

}  // namespace
}  // namespace opiso
