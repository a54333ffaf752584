// Tests for bit-level activity statistics, the correlated-walk
// stimulus, the bit-level macro model and the gate-level reference
// power measurement.
#include <gtest/gtest.h>

#include "lower/gate_power.hpp"
#include "power/bit_model.hpp"
#include "power/estimator.hpp"
#include "reference_simulator.hpp"

namespace opiso {
namespace {

Netlist passthrough(unsigned width) {
  Netlist nl;
  NetId a = nl.add_input("a", width);
  nl.add_output("o", a);
  return nl;
}

TEST(BitStats, CountsPerBitExactly) {
  Netlist nl = passthrough(4);
  const NetId a = nl.find_net("a");
  Simulator sim(nl);
  sim.enable_bit_stats();
  VectorStimulus stim;
  stim.set("a", {0b0000, 0b0001, 0b0011, 0b0010});
  sim.run(stim, 4);
  // bit0: 0->1->1->0 = 2 toggles; bit1: 0->0->1->1 = 1 toggle.
  EXPECT_NEAR(sim.stats().bit_toggle_rate(a, 0), 2.0 / 4.0, 1e-12);
  EXPECT_NEAR(sim.stats().bit_toggle_rate(a, 1), 1.0 / 4.0, 1e-12);
  EXPECT_NEAR(sim.stats().bit_toggle_rate(a, 3), 0.0, 1e-12);
  // Word toggle count equals the per-bit sum.
  EXPECT_EQ(sim.stats().toggles[a.value()], 3u);
}

TEST(BitStats, ErrorsWhenNotEnabled) {
  Netlist nl = passthrough(4);
  Simulator sim(nl);
  UniformStimulus stim(1);
  sim.run(stim, 4);
  EXPECT_THROW((void)sim.stats().bit_toggle_rate(nl.find_net("a"), 0), Error);
}

TEST(CorrelatedWalk, MsbsToggleMuchLessThanLsbs) {
  Netlist nl = passthrough(12);
  const NetId a = nl.find_net("a");
  Simulator sim(nl);
  sim.enable_bit_stats();
  CorrelatedWalkStimulus stim(0.02, 3);
  sim.run(stim, 30000);
  const double lsb = sim.stats().bit_toggle_rate(a, 0);
  const double msb = sim.stats().bit_toggle_rate(a, 11);
  EXPECT_GT(lsb, 0.3);          // low bits look like white noise
  EXPECT_LT(msb, lsb * 0.15);   // top bits nearly quiet
}

TEST(CorrelatedWalk, StaysInRangeAndMoves) {
  Netlist nl = passthrough(8);
  const NetId a = nl.find_net("a");
  Simulator sim(nl);
  CorrelatedWalkStimulus stim(0.05, 9);
  std::uint64_t prev = 0;
  bool moved = false;
  for (int i = 0; i < 200; ++i) {
    sim.run(stim, 1);
    const std::uint64_t v = sim.net_value(a);
    EXPECT_LE(v, 0xFFu);
    if (i > 0 && v != prev) moved = true;
    prev = v;
  }
  EXPECT_TRUE(moved);
}

TEST(BitModel, LsbTogglesCostMoreInAdders) {
  BitLevelMacroModel m;
  EXPECT_GT(m.bit_energy_pj(CellKind::Add, 8, 0, 0, 8), m.bit_energy_pj(CellKind::Add, 8, 0, 7, 8));
  EXPECT_GT(m.bit_energy_pj(CellKind::Mul, 16, 0, 0, 8), m.bit_energy_pj(CellKind::Mul, 16, 0, 7, 8));
  // Gates have no positional effect.
  EXPECT_DOUBLE_EQ(m.bit_energy_pj(CellKind::And, 8, 0, 0, 8),
                   m.bit_energy_pj(CellKind::And, 8, 0, 7, 8));
}

TEST(BitModel, AgreesWithWordModelUnderWhiteNoise) {
  // Same adder, uniform stimulus: both estimates within ~35% of each
  // other (they are calibrated to first order, not identically).
  Netlist nl;
  NetId a = nl.add_input("a", 8);
  NetId b = nl.add_input("b", 8);
  NetId s = nl.add_binop(CellKind::Add, "s", a, b);
  nl.add_output("o", s);
  Simulator sim(nl);
  sim.enable_bit_stats();
  UniformStimulus stim(21);
  sim.run(stim, 8000);
  const CellId adder = nl.net(s).driver;
  const double word = PowerEstimator().cell_power_mw(nl, sim.stats(), adder);
  const double bit = BitLevelPowerEstimator().cell_power_mw(nl, sim.stats(), adder);
  EXPECT_NEAR(bit / word, 1.0, 0.10);
}

TEST(BitModel, CorrelatedDataCostsLessButNotProportionally) {
  Netlist nl;
  NetId a = nl.add_input("a", 10);
  NetId b = nl.add_input("b", 10);
  NetId s = nl.add_binop(CellKind::Add, "s", a, b);
  nl.add_output("o", s);
  auto measure = [&](std::unique_ptr<Stimulus> stim, double* word_mw) {
    Simulator sim(nl);
    sim.enable_bit_stats();
    sim.run(*stim, 8000);
    if (word_mw) *word_mw = PowerEstimator().estimate(nl, sim.stats()).total_mw;
    return BitLevelPowerEstimator().total_power_mw(nl, sim.stats());
  };
  const double uniform = measure(std::make_unique<UniformStimulus>(31), nullptr);
  double word_correlated = 0.0;
  const double correlated =
      measure(std::make_unique<CorrelatedWalkStimulus>(0.02, 31), &word_correlated);
  // Correlated data is cheaper...
  EXPECT_LT(correlated, uniform * 0.9);
  // ...but not in proportion to the raw toggle count: the surviving
  // LSB toggles ride the longest carry tails, so the bit-level model
  // charges more than the word-level (uniform-energy) model does.
  EXPECT_GT(correlated, word_correlated);
}

TEST(GateRef, MeasuresLoweredDesign) {
  Netlist nl;
  NetId a = nl.add_input("a", 6);
  NetId b = nl.add_input("b", 6);
  NetId s = nl.add_binop(CellKind::Add, "s", a, b);
  nl.add_output("o", s);
  UniformStimulus stim(41);
  const GateRefPower ref = measure_gate_level_power(nl, stim, 2000);
  EXPECT_GT(ref.total_mw, 0.0);
  EXPECT_GT(ref.gate_toggles, 0u);
  EXPECT_GT(ref.gate_cells, 20u);  // a 6-bit ripple adder in gates
}

TEST(GateRef, QuietInputsMeanQuietGates) {
  Netlist nl;
  NetId a = nl.add_input("a", 6);
  NetId b = nl.add_input("b", 6);
  NetId s = nl.add_binop(CellKind::Add, "s", a, b);
  nl.add_output("o", s);
  ConstantStimulus stim;
  const GateRefPower ref = measure_gate_level_power(nl, stim, 500);
  EXPECT_EQ(ref.gate_toggles, 0u);
}

TEST(GateRef, TracksMacroModelWithinBand) {
  // The word-level macro model and the gate-level measurement should be
  // the same order of magnitude for an adder under white noise — the
  // calibration premise behind macro power models.
  Netlist nl;
  NetId a = nl.add_input("a", 8);
  NetId b = nl.add_input("b", 8);
  NetId s = nl.add_binop(CellKind::Add, "s", a, b);
  nl.add_output("o", s);
  Simulator sim(nl);
  UniformStimulus stim1(51);
  sim.run(stim1, 4000);
  const double word = PowerEstimator().cell_power_mw(nl, sim.stats(), nl.net(s).driver);
  UniformStimulus stim2(51);
  const GateRefPower ref = measure_gate_level_power(nl, stim2, 4000);
  EXPECT_GT(word / ref.total_mw, 0.25);
  EXPECT_LT(word / ref.total_mw, 4.0);
}

}  // namespace
}  // namespace opiso
