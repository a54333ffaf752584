// Tests for the savings-estimation model (Sec. 4): Eq. 2 rescaling,
// Eq. 1 primary savings against hand computation, refined-vs-simple
// consistency, secondary savings sign and magnitude, and overheads.
#include <gtest/gtest.h>

#include "designs/designs.hpp"
#include "isolation/algorithm.hpp"
#include "netlist/traversal.hpp"
#include "reference_simulator.hpp"

namespace opiso {
namespace {

struct Harness {
  Netlist nl;
  ExprPool pool;
  NetVarMap vars;
  ActivationAnalysis aa;
  std::vector<IsolationCandidate> cands;
  MacroPowerModel power;

  explicit Harness(Netlist design) : nl(std::move(design)) {
    aa = derive_activation(nl, pool, vars);
    cands = identify_candidates(nl, combinational_blocks(nl), aa, pool, CandidateConfig{});
  }

  std::size_t index(const std::string& out_net) {
    const CellId cell = nl.net(nl.find_net(out_net)).driver;
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (cands[i].cell == cell) return i;
    }
    throw Error("candidate not found: " + out_net);
  }
};

TEST(Savings, Eq2RescalesToggleRate) {
  EXPECT_DOUBLE_EQ(SavingsEstimator::actual_toggle_rate(1.0, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(SavingsEstimator::actual_toggle_rate(0.3, 1.0), 0.3);
  EXPECT_DOUBLE_EQ(SavingsEstimator::actual_toggle_rate(0.3, 0.0), 0.0);  // guarded
}

TEST(Savings, PrRedundantMatchesActivationStatistics) {
  Harness h(make_design1(8));
  SavingsEstimator est(h.nl, h.pool, h.vars, h.cands, h.power);
  Simulator sim(h.nl, &h.pool, &h.vars);
  est.register_probes(sim);
  auto comp = CompositeStimulus(std::make_unique<UniformStimulus>(1));
  comp.route("act", std::make_unique<ControlledBitStimulus>(0.25, 0.2, 2));
  sim.run(comp, 20000);
  // AS(mul1) = act with Pr[1] = 0.25 -> Pr(redundant) = 0.75.
  EXPECT_NEAR(est.pr_redundant(h.index("mul1"), sim.stats()), 0.75, 0.03);
  EXPECT_NEAR(est.activation_toggle_rate(h.index("mul1"), sim.stats()), 0.2, 0.03);
}

TEST(Savings, SimplePrimaryMatchesHandComputation) {
  Harness h(make_design1(8));
  SavingsEstimator est(h.nl, h.pool, h.vars, h.cands, h.power);
  Simulator sim(h.nl, &h.pool, &h.vars);
  est.register_probes(sim);
  auto comp = CompositeStimulus(std::make_unique<UniformStimulus>(3));
  comp.route("act", std::make_unique<ControlledBitStimulus>(0.5, 0.3, 4));
  sim.run(comp, 8000);

  const std::size_t i = h.index("mul1");
  const Cell& mul1 = h.nl.cell(h.cands[i].cell);
  const double tr_a = sim.stats().toggle_rate(mul1.ins[0]);
  const double tr_b = sim.stats().toggle_rate(mul1.ins[1]);
  const double expected = est.pr_redundant(i, sim.stats()) *
                          h.power.module_power_mw(CellKind::Mul, mul1.width, tr_a, tr_b);
  EXPECT_NEAR(est.primary_savings_mw(i, sim.stats(), PrimaryModel::Simple), expected, 1e-9);
  EXPECT_GT(expected, 0.0);
}

TEST(Savings, RefinedEqualsSimpleWithoutFaninCandidates) {
  // mul1's inputs come straight from primary inputs: the refined model's
  // event space degenerates to the background event and both models use
  // Pr(!f)·p(TrA,TrB) — but refined measures the *joint* probability, so
  // allow the sampling-level difference only.
  Harness h(make_design1(8));
  SavingsEstimator est(h.nl, h.pool, h.vars, h.cands, h.power);
  Simulator sim(h.nl, &h.pool, &h.vars);
  est.register_probes(sim);
  UniformStimulus stim(5);
  sim.run(stim, 8000);
  const std::size_t i = h.index("mul1");
  const double simple = est.primary_savings_mw(i, sim.stats(), PrimaryModel::Simple);
  const double refined = est.primary_savings_mw(i, sim.stats(), PrimaryModel::Refined);
  EXPECT_NEAR(refined, simple, 1e-9);
}

TEST(Savings, SecondarySavingsPositiveForChainedCandidates) {
  // Isolating add2 in design1 quiesces add3's steered input while add3
  // still computes: secondary savings must be positive.
  Harness h(make_design1(8));
  SavingsEstimator est(h.nl, h.pool, h.vars, h.cands, h.power);
  Simulator sim(h.nl, &h.pool, &h.vars);
  est.register_probes(sim);
  UniformStimulus stim(7);
  sim.run(stim, 8000);
  EXPECT_GT(est.secondary_savings_mw(h.index("add2"), sim.stats()), 0.0);
  // mul1 feeds only a register: no fanout candidates, zero secondary.
  EXPECT_DOUBLE_EQ(est.secondary_savings_mw(h.index("mul1"), sim.stats()), 0.0);
}

TEST(Savings, LatchOverheadExceedsGateOverheadForQuietAS) {
  // With a slowly toggling activation signal (long idle runs) the gate
  // banks' entry/exit transitions amortize away and the latch banks'
  // standing cost dominates — the paper's Sec.-6 observation.
  Harness h(make_design1(8));
  SavingsEstimator est(h.nl, h.pool, h.vars, h.cands, h.power);
  Simulator sim(h.nl, &h.pool, &h.vars);
  est.register_probes(sim);
  auto comp = CompositeStimulus(std::make_unique<UniformStimulus>(9));
  comp.route("act", std::make_unique<ControlledBitStimulus>(0.25, 0.02, 10));
  sim.run(comp, 8000);
  const std::size_t i = h.index("mul1");
  const double and_cost = est.overhead_mw(i, sim.stats(), IsolationStyle::And);
  const double lat_cost = est.overhead_mw(i, sim.stats(), IsolationStyle::Latch);
  EXPECT_GT(lat_cost, and_cost);
  EXPECT_GT(and_cost, 0.0);
}

TEST(Savings, TwitchyASMakesGateBanksExpensive) {
  // Fast-toggling activation signals charge the induced entry/exit
  // word swings to gate-based banks, but not to latch banks.
  Harness h(make_design1(8));
  SavingsEstimator est(h.nl, h.pool, h.vars, h.cands, h.power);
  Simulator sim(h.nl, &h.pool, &h.vars);
  est.register_probes(sim);
  auto comp = CompositeStimulus(std::make_unique<UniformStimulus>(9));
  comp.route("act", std::make_unique<ControlledBitStimulus>(0.5, 0.9, 10));
  sim.run(comp, 8000);
  const std::size_t i = h.index("mul1");
  EXPECT_GT(est.overhead_mw(i, sim.stats(), IsolationStyle::And),
            est.overhead_mw(i, sim.stats(), IsolationStyle::Latch));
}

TEST(Savings, PredictionTracksMeasuredReduction) {
  // End-to-end sanity of the model: predicted net savings for isolating
  // mul1 should be within a factor-2 band of the measured power delta.
  Netlist original = make_design1(8);
  Harness h(original);
  SavingsEstimator est(h.nl, h.pool, h.vars, h.cands, h.power);
  Simulator sim(h.nl, &h.pool, &h.vars);
  est.register_probes(sim);
  auto make_stim = [] {
    auto comp = std::make_unique<CompositeStimulus>(std::make_unique<UniformStimulus>(11));
    comp->route("act", std::make_unique<ControlledBitStimulus>(0.2, 0.2, 12));
    return comp;
  };
  auto s0 = make_stim();
  sim.run(*s0, 12000);
  const std::size_t i = h.index("mul1");
  const double predicted = est.primary_savings_mw(i, sim.stats(), PrimaryModel::Refined) +
                           est.secondary_savings_mw(i, sim.stats()) -
                           est.overhead_mw(i, sim.stats(), IsolationStyle::And);

  // Actually isolate and measure.
  PowerEstimator pe(h.power);
  const double before = pe.estimate(h.nl, sim.stats()).total_mw;
  (void)isolate_module(h.nl, h.pool, h.vars, h.cands[i].cell, h.cands[i].activation,
                       IsolationStyle::And);
  Simulator sim2(h.nl);
  auto s1 = make_stim();
  sim2.run(*s1, 12000);
  const double after = pe.estimate(h.nl, sim2.stats()).total_mw;
  const double measured = before - after;

  EXPECT_GT(predicted, 0.0);
  EXPECT_GT(measured, 0.0);
  EXPECT_LT(std::abs(predicted - measured), std::max(predicted, measured) * 0.6)
      << "predicted " << predicted << " vs measured " << measured;
}

}  // namespace
}  // namespace opiso
