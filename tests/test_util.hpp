#pragma once
// Shared helpers for the opiso test suite.

#include <gtest/gtest.h>

#include "reference_simulator.hpp"

namespace opiso::testutil {

/// Lock-step observational equivalence: both designs see identical
/// stimulus; every primary output must agree on every cycle. This is
/// the correctness contract of operand isolation — blocked computations
/// are exactly the ones that are never observed.
inline void expect_observably_equivalent(const Netlist& a, const Netlist& b,
                                         std::uint64_t seed, std::uint64_t cycles) {
  ASSERT_EQ(a.primary_outputs().size(), b.primary_outputs().size());
  Simulator sim_a(a);
  Simulator sim_b(b);
  UniformStimulus stim_a(seed);
  UniformStimulus stim_b(seed);
  for (std::uint64_t cycle = 0; cycle < cycles; ++cycle) {
    sim_a.run(stim_a, 1);
    sim_b.run(stim_b, 1);
    for (std::size_t i = 0; i < a.primary_outputs().size(); ++i) {
      const NetId net_a = a.cell(a.primary_outputs()[i]).ins[0];
      const NetId net_b = b.cell(b.primary_outputs()[i]).ins[0];
      ASSERT_EQ(sim_a.net_value(net_a), sim_b.net_value(net_b))
          << "output " << a.net(net_a).name << " diverged at cycle " << cycle;
    }
  }
}

}  // namespace opiso::testutil
