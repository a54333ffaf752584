// Tests for the stimulus generators — the statistics they promise are
// what the activation-sweep experiment (Sec. 6) depends on.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "reference_simulator.hpp"
#include "sim/parallel_sim.hpp"

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

// ---------------------------------------------- the uniform definition

/// SplitMix64's output function, written out apart from the library.
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// U(K, p, b, w, t): SplitMix64 output number t of the generator seeded
/// with the key of family K, input position p, bit b and plane word w.
std::uint64_t uniform_u(std::uint64_t family, std::uint64_t input, std::uint64_t bit,
                        std::uint64_t word, std::uint64_t t) {
  const std::uint64_t key = mix64(mix64(family) ^ (input << 32 | bit << 26 | word));
  return mix64(key + (t + 1) * 0x9E3779B97F4A7C15ull);
}

/// A 1-bit input at position 0 and a 64-bit input at position 1.
Netlist narrow_and_wide_inputs() {
  Netlist nl;
  nl.add_output("oa", nl.add_input("a", 1));
  nl.add_output("ob", nl.add_input("b", 64));
  return nl;
}

TEST(Stimulus, UniformDefinitionIsPinned) {
  EXPECT_EQ(uniform_u(1, 0, 0, 0, 0), 0x4181B152FB77616Full);
  EXPECT_EQ(uniform_u(7, 1, 63, 3, std::uint64_t{1} << 40), 0x0D78177DBCFD8DAEull);
  EXPECT_EQ(uniform_u(0xFFFFFFFFFFFFFFFFull, 4, 17, 7, 1), 0x9785686E316AA2C4ull);

  // Lane l of family K reads bit l % 64 of word l / 64, for each bit of
  // the input at its position in primary_inputs().
  const Netlist nl = narrow_and_wide_inputs();
  for (std::uint64_t family : {std::uint64_t{1}, std::uint64_t{0x5EED0001}}) {
    for (unsigned lane : {0u, 1u, 63u, 64u, ParallelSimulator::kMaxLanes - 1}) {
      UniformStimulus stim(UniformLane{family, lane});
      for (std::uint64_t t : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{1} << 40}) {
        for (std::uint64_t p = 0; p < nl.primary_inputs().size(); ++p) {
          const CellId pi = nl.primary_inputs()[p];
          std::uint64_t want = 0;
          for (unsigned b = 0; b < nl.cell(pi).width; ++b) {
            want |= ((uniform_u(family, p, b, lane / 64, t) >> (lane % 64)) & 1) << b;
          }
          EXPECT_EQ(stim.next(nl, pi, t), want)
              << "family " << family << " lane " << lane << " cycle " << t << " input " << p;
        }
      }
    }
  }
}

TEST(Stimulus, UniformStreamsAreIndependent) {
  // Two independent fair bits agree on half the cycles; two streams that
  // share a key agree on all of them.
  const Netlist nl = narrow_and_wide_inputs();
  const CellId a = nl.primary_inputs()[0];
  const CellId b = nl.primary_inputs()[1];
  constexpr std::uint64_t kCycles = 4096;
  // Agreement of bit `i` of `x` with bit `j` of `y` over the cycles.
  const auto expect_independent = [](const std::vector<std::uint64_t>& x, unsigned i,
                                     const std::vector<std::uint64_t>& y, unsigned j,
                                     const std::string& what) {
    std::uint64_t agree = 0;
    for (std::uint64_t t = 0; t < kCycles; ++t) agree += ((x[t] >> i) & 1) == ((y[t] >> j) & 1);
    const double share = static_cast<double>(agree) / kCycles;
    EXPECT_GE(share, 0.45) << what;
    EXPECT_LE(share, 0.55) << what;
  };
  // The value of `pi` in lane `lane` of `family`, every cycle.
  const auto values = [&nl](std::uint64_t family, unsigned lane, CellId pi) {
    UniformStimulus stim(UniformLane{family, lane});
    std::vector<std::uint64_t> out;
    for (std::uint64_t t = 0; t < kCycles; ++t) out.push_back(stim.next(nl, pi, t));
    return out;
  };
  // No two (input, bit, word) of a family share a stream: over 64
  // cycles, lane bit 5 of words 0..9 of the 65 input bits is 650
  // distinct sequences.
  std::set<std::uint64_t> sequences;
  for (unsigned word = 0; word < 10; ++word) {
    for (CellId pi : {a, b}) {
      const std::vector<std::uint64_t> v = values(3, 64 * word + 5, pi);
      for (unsigned bit = 0; bit < nl.cell(pi).width; ++bit) {
        std::uint64_t sequence = 0;
        for (unsigned t = 0; t < 64; ++t) sequence |= ((v[t] >> bit) & 1) << t;
        sequences.insert(sequence);
      }
    }
  }
  EXPECT_EQ(sequences.size(), 10u * 65u);
  for (unsigned word : {0u, 7u, 8u}) {
    const unsigned lane = 64 * word + 5;
    const std::string at = " in word " + std::to_string(word);
    const std::vector<std::uint64_t> wide = values(3, lane, b);
    for (unsigned bit = 0; bit + 1 < 64; ++bit) {
      expect_independent(wide, bit, wide, bit + 1,
                         "bits " + std::to_string(bit) + " and " + std::to_string(bit + 1) + at);
    }
    expect_independent(values(3, lane, a), 0, wide, 0, "two inputs" + at);
    expect_independent(wide, 0, values(3, lane + 64, b), 0, "lanes l and l+64" + at);
    expect_independent(wide, 0, values(4, lane, b), 0, "families 3 and 4" + at);
  }
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
