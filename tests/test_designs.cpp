// Sanity tests for the benchmark design generators.
#include <gtest/gtest.h>

#include "designs/designs.hpp"
#include "netlist/stats.hpp"
#include "netlist/traversal.hpp"
#include "reference_simulator.hpp"

namespace opiso {
namespace {

TEST(Designs, Fig1Structure) {
  const Netlist nl = make_fig1(8);
  const NetlistStats s = compute_stats(nl);
  EXPECT_EQ(s.num_arith_modules, 2u);
  EXPECT_EQ(s.num_registers, 2u);
  EXPECT_EQ(s.cells_by_kind[static_cast<size_t>(CellKind::Mux2)], 3u);
  const Fig1Nets f = fig1_nets(nl);
  EXPECT_TRUE(f.a1_out.valid());
  EXPECT_EQ(nl.cell(f.a1).kind, CellKind::Add);
}

TEST(Designs, Fig1ComputesTheDatapath) {
  const Netlist nl = make_fig1(8);
  ConstantStimulus stim;
  stim.set("A", 10);
  stim.set("B", 20);
  stim.set("C", 3);
  stim.set("S0", 0);  // m0 passes a1
  stim.set("S1", 1);  // m1 passes m0
  stim.set("S2", 1);  // m2 passes a1
  stim.set("G0", 1);
  stim.set("G1", 1);
  Simulator sim(nl);
  sim.run(stim, 2);
  // r0 captured a0 = (A+B) + C; r1 captured a1 = A+B.
  EXPECT_EQ(sim.net_value(nl.find_net("r0")), 33u);
  EXPECT_EQ(sim.net_value(nl.find_net("r1")), 30u);
}

TEST(Designs, Design1WidthParameter) {
  for (unsigned w : {4u, 8u, 12u}) {
    const Netlist nl = make_design1(w);
    EXPECT_EQ(nl.net(nl.find_net("mul1")).width, 2 * w);
    EXPECT_EQ(nl.net(nl.find_net("add1")).width, w);
    EXPECT_NO_THROW(nl.validate());
  }
}

TEST(Designs, Design1MacSemantics) {
  const Netlist nl = make_design1(8);
  ConstantStimulus stim;
  stim.set("x0", 5);
  stim.set("x1", 6);
  stim.set("x2", 10);
  stim.set("x3", 20);
  stim.set("act", 1);
  Simulator sim(nl);
  sim.run(stim, 2);
  EXPECT_EQ(sim.net_value(nl.find_net("reg_p")), 30u);
  EXPECT_EQ(sim.net_value(nl.find_net("reg_q")), 30u);
  EXPECT_EQ(sim.net_value(nl.find_net("add2")), 60u);
  EXPECT_EQ(sim.net_value(nl.find_net("sub2")), 0u);
}

TEST(Designs, Design2CounterCyclesWithStart) {
  const Netlist nl = make_design2(8, 1);
  ConstantStimulus stim;
  stim.set("start", 1);
  Simulator sim(nl);
  // After the first settle st = 000; the counter walks all 8 phases.
  std::vector<std::uint64_t> states;
  for (int i = 0; i < 10; ++i) {
    sim.run(stim, 1);
    states.push_back(sim.net_value(nl.find_net("st2")) * 4 +
                     sim.net_value(nl.find_net("st1")) * 2 +
                     sim.net_value(nl.find_net("st0")));
  }
  EXPECT_EQ(states, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6, 7, 0, 1}));
}

TEST(Designs, Design2CounterHoldsWithoutStart) {
  const Netlist nl = make_design2(8, 1);
  ConstantStimulus stim;
  stim.set("start", 0);
  Simulator sim(nl);
  sim.run(stim, 5);
  EXPECT_EQ(sim.net_value(nl.find_net("st0")), 0u);
  EXPECT_EQ(sim.net_value(nl.find_net("st1")), 0u);
}

TEST(Designs, Design2LaneCount) {
  for (unsigned lanes : {1u, 2u, 4u}) {
    const Netlist nl = make_design2(8, lanes);
    const NetlistStats s = compute_stats(nl);
    // Per lane: mul + sum + sub.
    EXPECT_EQ(s.num_arith_modules, 3u * lanes);
    EXPECT_NO_THROW(nl.validate());
  }
}

TEST(Designs, Design2AccumulatorAccumulates) {
  const Netlist nl = make_design2(8, 1);
  ConstantStimulus stim;
  stim.set("start", 1);
  stim.set("l0_a", 3);
  stim.set("l0_b", 4);
  Simulator sim(nl);
  // en_acc = ph1|ph2: with the counter at 0,1,2,3,... the accumulator
  // loads on edges of cycles with st=1 and st=2 (two loads per lap).
  sim.run(stim, 5);  // st: 0,1,2,3,0 -> acc loaded twice with acc+12
  EXPECT_EQ(sim.net_value(nl.find_net("l0_acc")), 24u);
}

TEST(Designs, ParametricScalesLinearly) {
  const Netlist small = make_parametric_datapath({1, 1, 8, true});
  const Netlist big = make_parametric_datapath({4, 4, 8, true});
  EXPECT_GT(big.num_cells(), 10 * small.num_cells());
  const NetlistStats s = compute_stats(big);
  EXPECT_EQ(s.num_arith_modules, 4u * 4u * 3u);  // add+sub+acc per stage
}

TEST(Designs, ParametricValidatesAcrossParameterSpace) {
  for (unsigned lanes : {1u, 3u}) {
    for (unsigned stages : {1u, 4u}) {
      for (bool cross : {false, true}) {
        const Netlist nl = make_parametric_datapath({lanes, stages, 6, cross});
        EXPECT_NO_THROW(nl.validate());
        EXPECT_EQ(nl.primary_outputs().size(), lanes);
      }
    }
  }
}

TEST(Designs, ParametricRejectsBadParameters) {
  EXPECT_THROW((void)make_parametric_datapath({0, 1, 8, true}), Error);
  EXPECT_THROW((void)make_parametric_datapath({1, 1, 1, true}), Error);
  EXPECT_THROW((void)make_parametric_datapath({1, 1, 32, true}), Error);
}

}  // namespace
}  // namespace opiso
