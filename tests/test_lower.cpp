// Tests for gate-level lowering: exhaustive functional checks of the
// arithmetic expansions plus lock-step word-vs-gate equivalence on the
// benchmark designs.
#include <gtest/gtest.h>

#include "designs/designs.hpp"
#include "lower/gate_level.hpp"
#include "reference_simulator.hpp"

namespace opiso {
namespace {

/// Evaluate a two-input word design and its lowering on one input pair;
/// returns {word result, gate result} for the net/bits named "f".
struct OpHarness {
  Netlist word;
  GateLevelResult gates;
  NetId word_f;

  explicit OpHarness(CellKind kind, unsigned wa, unsigned wb) {
    NetId a = word.add_input("a", wa);
    NetId b = word.add_input("b", wb);
    word_f = word.add_binop(kind, "f", a, b);
    word.add_output("o", word_f);
    gates = lower_to_gates(word);
  }

  std::pair<std::uint64_t, std::uint64_t> eval(std::uint64_t va, std::uint64_t vb) {
    ConstantStimulus stim;
    stim.set("a", va);
    stim.set("b", vb);
    Simulator ws(word);
    ws.run(stim, 1);

    BitStimulusAdapter bits(word, stim);
    Simulator gs(gates.netlist);
    gs.run(bits, 1);
    std::uint64_t gate_val = 0;
    const auto& f_bits = gates.bits_of(word_f);
    for (std::size_t i = 0; i < f_bits.size(); ++i) {
      gate_val |= gs.net_value(f_bits[i]) << i;
    }
    return {ws.net_value(word_f), gate_val};
  }
};

struct OpCase {
  CellKind kind;
  const char* name;
};

class LowerOpExhaustive : public ::testing::TestWithParam<OpCase> {};

TEST_P(LowerOpExhaustive, FourBitExhaustive) {
  OpHarness h(GetParam().kind, 4, 4);
  for (std::uint64_t a = 0; a < 16; ++a) {
    for (std::uint64_t b = 0; b < 16; ++b) {
      const auto [w, g] = h.eval(a, b);
      ASSERT_EQ(w, g) << GetParam().name << "(" << a << ", " << b << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ops, LowerOpExhaustive,
                         ::testing::Values(OpCase{CellKind::Add, "add"},
                                           OpCase{CellKind::Sub, "sub"},
                                           OpCase{CellKind::Mul, "mul"},
                                           OpCase{CellKind::Eq, "eq"},
                                           OpCase{CellKind::Lt, "lt"},
                                           OpCase{CellKind::And, "and"},
                                           OpCase{CellKind::Xor, "xor"},
                                           OpCase{CellKind::Nor, "nor"}));

TEST(Lower, MixedWidthAdd) {
  OpHarness h(CellKind::Add, 6, 3);
  for (std::uint64_t a : {0ull, 5ull, 33ull, 63ull}) {
    for (std::uint64_t b = 0; b < 8; ++b) {
      const auto [w, g] = h.eval(a, b);
      ASSERT_EQ(w, g);
    }
  }
}

TEST(Lower, ShiftsAreWiring) {
  Netlist word;
  NetId a = word.add_input("a", 8);
  NetId l = word.add_shift(CellKind::Shl, "l", a, 3);
  NetId r = word.add_shift(CellKind::Shr, "r", a, 2);
  word.add_output("ol", l);
  word.add_output("or", r);
  const std::size_t gates_before = word.num_cells();
  const GateLevelResult g = lower_to_gates(word);
  (void)gates_before;
  ConstantStimulus stim;
  stim.set("a", 0b10110101);
  BitStimulusAdapter bits(word, stim);
  Simulator gs(g.netlist);
  gs.run(bits, 1);
  std::uint64_t lv = 0, rv = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    lv |= gs.net_value(g.bits_of(l)[i]) << i;
    rv |= gs.net_value(g.bits_of(r)[i]) << i;
  }
  EXPECT_EQ(lv, (0b10110101ull << 3) & 0xFF);
  EXPECT_EQ(rv, 0b10110101ull >> 2);
}

TEST(Lower, AllNetsAreOneBit) {
  const GateLevelResult g = lower_to_gates(make_fig1(6));
  for (NetId id : g.netlist.net_ids()) {
    EXPECT_EQ(g.netlist.net(id).width, 1u);
  }
}

class LowerDesignEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(LowerDesignEquivalence, LockStepWithWordLevel) {
  Netlist word;
  const std::string which = GetParam();
  if (which == "fig1") word = make_fig1(6);
  if (which == "design1") word = make_design1(5);
  if (which == "design2") word = make_design2(5, 1);
  const GateLevelResult g = lower_to_gates(word);

  Simulator ws(word);
  Simulator gs(g.netlist);
  UniformStimulus stim_w(77);
  UniformStimulus stim_g_inner(77);
  BitStimulusAdapter stim_g(word, stim_g_inner);
  for (int cycle = 0; cycle < 400; ++cycle) {
    ws.run(stim_w, 1);
    gs.run(stim_g, 1);
    // Compare every word net against its reassembled bits.
    for (NetId net : word.net_ids()) {
      const auto& bits = g.bits_of(net);
      std::uint64_t v = 0;
      for (std::size_t i = 0; i < bits.size(); ++i) v |= gs.net_value(bits[i]) << i;
      ASSERT_EQ(ws.net_value(net), v)
          << "net " << word.net(net).name << " diverged at cycle " << cycle;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Designs, LowerDesignEquivalence,
                         ::testing::Values("fig1", "design1", "design2"));

TEST(Lower, IsolationCellsLowerCorrectly) {
  Netlist word;
  NetId d = word.add_input("d", 4);
  NetId as = word.add_input("as", 1);
  NetId ia = word.add_iso(CellKind::IsoAnd, "ia", d, as);
  NetId io = word.add_iso(CellKind::IsoOr, "io", d, as);
  word.add_output("oa", ia);
  word.add_output("oo", io);
  const GateLevelResult g = lower_to_gates(word);
  for (std::uint64_t dv = 0; dv < 16; ++dv) {
    for (std::uint64_t asv = 0; asv < 2; ++asv) {
      ConstantStimulus stim;
      stim.set("d", dv);
      stim.set("as", asv);
      BitStimulusAdapter bits(word, stim);
      Simulator gs(g.netlist);
      gs.run(bits, 1);
      std::uint64_t va = 0, vo = 0;
      for (std::size_t i = 0; i < 4; ++i) {
        va |= gs.net_value(g.bits_of(ia)[i]) << i;
        vo |= gs.net_value(g.bits_of(io)[i]) << i;
      }
      ASSERT_EQ(va, asv ? dv : 0u);
      ASSERT_EQ(vo, asv ? dv : 0xFu);
    }
  }
}

TEST(Lower, GateCountScalesWithWidth) {
  auto count = [](unsigned w) {
    Netlist word;
    NetId a = word.add_input("a", w);
    NetId b = word.add_input("b", w);
    word.add_output("o", word.add_binop(CellKind::Mul, "p", a, b));
    return lower_to_gates(word).netlist.num_cells();
  };
  // Array multiplier grows superlinearly; ripple adder linearly.
  EXPECT_GT(count(8), 3 * count(4));
}

}  // namespace
}  // namespace opiso
