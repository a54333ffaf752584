// Property-based fuzzing across the whole stack: random layered
// datapaths are pushed through every major transform and each one must
// preserve observed behavior (and, where applicable, pass the formal
// checker).
#include <gtest/gtest.h>

#include "designs/designs.hpp"
#include "isolation/activation.hpp"
#include "isolation/transform.hpp"
#include "netlist/stats.hpp"
#include "lower/gate_level.hpp"
#include "netlist/text_io.hpp"
#include "opt/rewrite_rules.hpp"
#include "sim/parallel_sim.hpp"
#include "sim/sweep.hpp"
#include "test_util.hpp"
#include "verify/equiv.hpp"

namespace opiso {
namespace {

class Fuzz : public ::testing::TestWithParam<int> {
 protected:
  [[nodiscard]] std::uint64_t seed() const {
    return static_cast<std::uint64_t>(GetParam()) * 1337 + 11;
  }
};

TEST_P(Fuzz, GeneratorProducesValidDesigns) {
  const Netlist nl = make_random_datapath(seed());
  EXPECT_NO_THROW(nl.validate());
  EXPECT_GE(nl.primary_outputs().size(), 1u);
}

TEST_P(Fuzz, TextRoundTripIsExact) {
  const Netlist nl = make_random_datapath(seed());
  const std::string text = netlist_to_string(nl);
  const Netlist back = netlist_from_string(text);
  EXPECT_EQ(netlist_to_string(back), text);
  testutil::expect_observably_equivalent(nl, back, seed(), 300);
}

TEST_P(Fuzz, OptimizePreservesBehavior) {
  RandomDesignConfig latches;
  latches.allow_latches = true;
  for (const Netlist& nl : {make_random_datapath(seed()), make_random_datapath(seed(), latches)}) {
    const Netlist opt = optimize(nl);
    EXPECT_LE(opt.num_cells(), nl.num_cells());
    EXPECT_EQ(optimize(opt).num_cells(), opt.num_cells()) << "not idempotent, seed " << seed();
    testutil::expect_observably_equivalent(nl, opt, seed() ^ 0xA5A5, 800);
  }
}

TEST_P(Fuzz, IsolationPreservesBehaviorAllStyles) {
  const Netlist original = make_random_datapath(seed());
  for (IsolationStyle style :
       {IsolationStyle::And, IsolationStyle::Or, IsolationStyle::Latch}) {
    Netlist nl = original;
    ExprPool pool;
    NetVarMap vars;
    const ActivationAnalysis aa = derive_activation(nl, pool, vars);
    std::size_t isolated = 0;
    for (CellId id : nl.cell_ids()) {
      if (!cell_kind_is_arith(nl.cell(id).kind)) continue;
      const ExprRef f = aa.activation_of(nl, id);
      if (pool.is_const1(f)) continue;
      if (!isolation_is_legal(nl, pool, vars, id, f)) continue;
      (void)isolate_module(nl, pool, vars, id, f, style);
      ++isolated;
    }
    nl.validate();
    if (isolated == 0) continue;  // some seeds have only always-observed modules
    testutil::expect_observably_equivalent(original, nl, seed() ^ 0xF00D, 1200);
  }
}

TEST_P(Fuzz, FormalCheckerAgreesOnGateStyles) {
  // Keep multiplier bit-widths small enough for BDDs.
  RandomDesignConfig cfg;
  cfg.max_width = 5;
  cfg.levels = 4;
  cfg.cells_per_level = 4;
  const Netlist original = make_random_datapath(seed(), cfg);
  const NetlistStats stats = compute_stats(original);
  if (stats.cells_by_kind[static_cast<size_t>(CellKind::Mul)] > 3) return;

  Netlist nl = original;
  ExprPool pool;
  NetVarMap vars;
  const ActivationAnalysis aa = derive_activation(nl, pool, vars);
  std::size_t isolated = 0;
  for (CellId id : nl.cell_ids()) {
    if (!cell_kind_is_arith(nl.cell(id).kind)) continue;
    const ExprRef f = aa.activation_of(nl, id);
    if (pool.is_const1(f) || !isolation_is_legal(nl, pool, vars, id, f)) continue;
    (void)isolate_module(nl, pool, vars, id, f, IsolationStyle::And);
    ++isolated;
  }
  if (isolated == 0) return;
  const EquivResult res = check_isolation_equivalence(original, nl);
  EXPECT_TRUE(res.equivalent) << "seed " << seed() << ": " << res.reason;
}

TEST_P(Fuzz, LoweringMatchesWordLevel) {
  RandomDesignConfig cfg;
  cfg.max_width = 6;
  cfg.levels = 4;
  cfg.cells_per_level = 4;
  const Netlist word = make_random_datapath(seed(), cfg);
  const GateLevelResult g = lower_to_gates(word);
  Simulator ws(word);
  Simulator gs(g.netlist);
  UniformStimulus sw(seed());
  UniformStimulus sg_inner(seed());
  BitStimulusAdapter sg(word, sg_inner);
  for (int cycle = 0; cycle < 300; ++cycle) {
    ws.run(sw, 1);
    gs.run(sg, 1);
    for (std::size_t i = 0; i < word.primary_outputs().size(); ++i) {
      const NetId wn = word.cell(word.primary_outputs()[i]).ins[0];
      std::uint64_t v = 0;
      const auto& bits = g.bits_of(wn);
      for (std::size_t b = 0; b < bits.size(); ++b) v |= gs.net_value(bits[b]) << b;
      ASSERT_EQ(ws.net_value(wn), v) << "seed " << seed() << " cycle " << cycle;
    }
  }
}

TEST_P(Fuzz, ParallelSimMatchesScalarOracle) {
  // The 64-lane plane engine must be bitwise identical to one
  // reference-interpreter run per lane on arbitrary generated designs,
  // latches included.
  RandomDesignConfig cfg;
  cfg.allow_latches = (GetParam() % 2) == 1;
  const Netlist nl = make_random_datapath(seed(), cfg);
  const unsigned lanes = 1 + static_cast<unsigned>(seed() % 64);

  ParallelSimulator psim(nl, lanes);
  psim.set_stimulus([this](unsigned lane) {
    return std::make_unique<UniformStimulus>(sweep_lane_seed(seed(), lane));
  });
  psim.run(100);

  ActivityStats oracle;
  for (unsigned l = 0; l < lanes; ++l) {
    Simulator sim(nl);
    UniformStimulus stim(sweep_lane_seed(seed(), l));
    sim.run(stim, 100);
    oracle.merge(sim.stats());
    for (CellId po : nl.primary_outputs()) {
      const NetId net = nl.cell(po).ins[0];
      ASSERT_EQ(psim.lane_value(net, l), sim.net_value(net))
          << "seed " << seed() << " lanes " << lanes << " net " << nl.net(net).name;
    }
  }
  ASSERT_EQ(psim.stats().toggles, oracle.toggles) << "seed " << seed() << " lanes " << lanes;
  ASSERT_EQ(psim.stats().cycles, oracle.cycles);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fuzz, ::testing::Range(0, 20));

}  // namespace
}  // namespace opiso
