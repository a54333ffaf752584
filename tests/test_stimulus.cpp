// Tests for the stimulus generators — the statistics they promise are
// what the activation-sweep experiment (Sec. 6) depends on.
#include <gtest/gtest.h>

#include <sstream>

#include "reference_simulator.hpp"

namespace opiso {
namespace {

Netlist one_bit_probe_design() {
  Netlist nl;
  NetId a = nl.add_input("a", 1);
  nl.add_output("o", a);
  return nl;
}

TEST(Stimulus, ConstantDefaultsToZero) {
  Netlist nl;
  NetId a = nl.add_input("a", 8);
  nl.add_output("o", a);
  ConstantStimulus stim;
  Simulator sim(nl);
  sim.run(stim, 3);
  EXPECT_EQ(sim.net_value(a), 0u);
}

TEST(Stimulus, ConstantMasksToWidth) {
  Netlist nl;
  NetId a = nl.add_input("a", 4);
  nl.add_output("o", a);
  ConstantStimulus stim;
  stim.set("a", 0xFF);
  Simulator sim(nl);
  sim.run(stim, 1);
  EXPECT_EQ(sim.net_value(a), 0xFu);
}

TEST(Stimulus, VectorHoldsLastValue) {
  Netlist nl;
  NetId a = nl.add_input("a", 8);
  nl.add_output("o", a);
  VectorStimulus stim;
  stim.set("a", {1, 2});
  Simulator sim(nl);
  sim.run(stim, 5);
  EXPECT_EQ(sim.net_value(a), 2u);
}

TEST(Stimulus, UniformIsDeterministicPerSeed) {
  Netlist nl;
  NetId a = nl.add_input("a", 16);
  nl.add_output("o", a);
  auto run_once = [&](std::uint64_t seed) {
    UniformStimulus stim(seed);
    Simulator sim(nl);
    sim.run(stim, 10);
    return sim.net_value(a);
  };
  EXPECT_EQ(run_once(42), run_once(42));
  EXPECT_NE(run_once(42), run_once(43));
}

// Parameterized sweep: the Markov bit stream must hit its target static
// probability and toggle rate (within sampling tolerance).
struct BitStats {
  double p1;
  double tr;
};

class ControlledBitSweep : public ::testing::TestWithParam<BitStats> {};

TEST_P(ControlledBitSweep, HitsTargetStatistics) {
  const auto [p1, tr] = GetParam();
  Netlist nl = one_bit_probe_design();
  const NetId a = nl.find_net("a");
  ExprPool pool;
  NetVarMap vars;
  ControlledBitStimulus stim(p1, tr, 99);
  Simulator sim(nl, &pool, &vars);
  const std::size_t high = sim.add_probe(pool.var(vars.var_of(nl, a)));
  sim.run(stim, 60000);
  EXPECT_NEAR(sim.stats().probe_probability(high), p1, 0.02);
  EXPECT_NEAR(sim.stats().toggle_rate(a), tr, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Targets, ControlledBitSweep,
                         ::testing::Values(BitStats{0.5, 0.5}, BitStats{0.1, 0.1},
                                           BitStats{0.9, 0.15}, BitStats{0.25, 0.4},
                                           BitStats{0.5, 0.05}, BitStats{0.75, 0.3}));

TEST(Stimulus, ControlledBitRejectsInfeasibleToggleRate) {
  // tr must be <= 2*min(p1, 1-p1).
  EXPECT_THROW(ControlledBitStimulus(0.1, 0.5), Error);
  EXPECT_THROW(ControlledBitStimulus(0.0, 0.1), Error);
  EXPECT_NO_THROW(ControlledBitStimulus(0.1, 0.2));
}

TEST(Stimulus, CompositeRoutesBySignalName) {
  Netlist nl;
  NetId a = nl.add_input("a", 8);
  NetId b = nl.add_input("b", 8);
  nl.add_output("oa", a);
  nl.add_output("ob", b);
  auto comp = CompositeStimulus(std::make_unique<ConstantStimulus>());
  auto fixed = std::make_unique<ConstantStimulus>();
  fixed->set("a", 77);
  comp.route("a", std::move(fixed));
  Simulator sim(nl);
  sim.run(comp, 2);
  EXPECT_EQ(sim.net_value(a), 77u);
  EXPECT_EQ(sim.net_value(b), 0u);
}

TEST(Stimulus, CompositeRejectsNull) {
  EXPECT_THROW(CompositeStimulus(nullptr), Error);
}

}  // namespace
}  // namespace opiso
