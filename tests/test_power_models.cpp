// Tests for bit-level activity statistics (read from the lowered
// netlist's bit nets), the correlated-walk stimulus, the bit-level
// macro model and the gate-level reference power measurement.
#include <gtest/gtest.h>

#include <numeric>

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

/// Net toggles summed over a gate-level run's whole lowered design.
std::uint64_t gate_toggles(const GateRefPower& ref) {
  return std::accumulate(ref.stats.toggles.begin(), ref.stats.toggles.end(), std::uint64_t{0});
}

/// The per-bit rates of a gate-level run, as the bit-level model reads them.
BitToggleRate bit_rates(const GateRefPower& ref) {
  return [&ref](NetId net, unsigned bit) { return ref.bit_toggle_rate(net, bit); };
}

TEST(BitStats, CountsPerBitExactly) {
  Netlist nl = passthrough(4);
  const NetId a = nl.find_net("a");
  VectorStimulus stim;
  stim.set("a", {0b0000, 0b0001, 0b0011, 0b0010});
  const GateRefPower ref = measure_gate_level_power(nl, stim, 4);
  // bit0: 0->1->1->0 = 2 toggles; bit1: 0->0->1->1 = 1 toggle.
  EXPECT_NEAR(ref.bit_toggle_rate(a, 0), 2.0 / 4.0, 1e-12);
  EXPECT_NEAR(ref.bit_toggle_rate(a, 1), 1.0 / 4.0, 1e-12);
  EXPECT_NEAR(ref.bit_toggle_rate(a, 3), 0.0, 1e-12);
  // Word toggle count equals the per-bit sum.
  Simulator sim(nl);
  sim.run(stim, 4);
  EXPECT_EQ(sim.stats().toggles[a.value()], 3u);
}

TEST(BitStats, ErrorsOnBitOutOfRange) {
  Netlist nl = passthrough(4);
  UniformStimulus stim(1);
  const GateRefPower ref = measure_gate_level_power(nl, stim, 4);
  EXPECT_NO_THROW((void)ref.bit_toggle_rate(nl.find_net("a"), 3));
  EXPECT_THROW((void)ref.bit_toggle_rate(nl.find_net("a"), 4), Error);
}

TEST(CorrelatedWalk, MsbsToggleMuchLessThanLsbs) {
  Netlist nl = passthrough(12);
  const NetId a = nl.find_net("a");
  CorrelatedWalkStimulus stim(0.02, 3);
  const GateRefPower ref = measure_gate_level_power(nl, stim, 30000);
  const double lsb = ref.bit_toggle_rate(a, 0);
  const double msb = ref.bit_toggle_rate(a, 11);
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
  UniformStimulus stim(21);
  sim.run(stim, 8000);
  UniformStimulus gate_stim(21);
  const GateRefPower ref = measure_gate_level_power(nl, gate_stim, 8000);
  const CellId adder = nl.net(s).driver;
  const double word = PowerEstimator().cell_power_mw(nl, sim.stats(), adder);
  const double bit = BitLevelPowerEstimator().cell_power_mw(nl, bit_rates(ref), adder);
  EXPECT_NEAR(bit / word, 1.0, 0.10);
}

TEST(BitModel, CorrelatedDataCostsLessButNotProportionally) {
  Netlist nl;
  NetId a = nl.add_input("a", 10);
  NetId b = nl.add_input("b", 10);
  NetId s = nl.add_binop(CellKind::Add, "s", a, b);
  nl.add_output("o", s);
  auto measure = [&](Stimulus& stim, Stimulus& gate_stim, double* word_mw) {
    Simulator sim(nl);
    sim.run(stim, 8000);
    if (word_mw) *word_mw = PowerEstimator().estimate(nl, sim.stats()).total_mw;
    const GateRefPower ref = measure_gate_level_power(nl, gate_stim, 8000);
    return BitLevelPowerEstimator().total_power_mw(nl, bit_rates(ref));
  };
  UniformStimulus uniform_stim(31), uniform_gate_stim(31);
  const double uniform = measure(uniform_stim, uniform_gate_stim, nullptr);
  double word_correlated = 0.0;
  CorrelatedWalkStimulus walk(0.02, 31), gate_walk(0.02, 31);
  const double correlated = measure(walk, gate_walk, &word_correlated);
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
  EXPECT_GT(gate_toggles(ref), 0u);
  EXPECT_GT(ref.lowered.netlist.num_cells(), 20u);  // a 6-bit ripple adder in gates
}

TEST(GateRef, BitRatesSumToTheWordRunsToggles) {
  // The bit-level model reads its rates from the lowered run, so every
  // word net's bit nets must carry exactly the word run's bits.
  Netlist nl;
  const NetId a = nl.add_input("a", 8);
  const NetId b = nl.add_input("b", 8);
  const NetId en = nl.add_input("en", 1);
  nl.add_output("o1", nl.add_reg("r1", nl.add_binop(CellKind::Add, "sum", a, b), en));
  nl.add_output("o2", nl.add_reg("r2", nl.add_binop(CellKind::Mul, "prd", a, b), en));
  const auto make_stim = [] {
    auto comp =
        std::make_unique<CompositeStimulus>(std::make_unique<CorrelatedWalkStimulus>(0.02, 61));
    comp->route("en", std::make_unique<ControlledBitStimulus>(0.5, 0.3, 62));
    return comp;
  };
  constexpr std::uint64_t kCycles = 3000;
  Simulator sim(nl);
  sim.run(*make_stim(), kCycles);
  const GateRefPower ref = measure_gate_level_power(nl, *make_stim(), kCycles);
  ASSERT_EQ(ref.stats.cycles, sim.stats().cycles);
  for (NetId id : nl.net_ids()) {
    std::uint64_t summed = 0;
    for (NetId bit : ref.lowered.bits_of(id)) summed += ref.stats.toggles[bit.value()];
    EXPECT_EQ(summed, sim.stats().toggles[id.value()]) << nl.net(id).name;
  }
}

TEST(GateRef, QuietInputsMeanQuietGates) {
  Netlist nl;
  NetId a = nl.add_input("a", 6);
  NetId b = nl.add_input("b", 6);
  NetId s = nl.add_binop(CellKind::Add, "s", a, b);
  nl.add_output("o", s);
  ConstantStimulus stim;
  const GateRefPower ref = measure_gate_level_power(nl, stim, 500);
  EXPECT_EQ(gate_toggles(ref), 0u);
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
