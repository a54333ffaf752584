// Tests for the reference interpreter (reference_simulator.hpp), the
// oracle of the plane engine: functional semantics of every cell kind,
// register/latch behavior, toggle statistics and probes.
#include <gtest/gtest.h>

#include "reference_simulator.hpp"

namespace opiso {
namespace {

/// Drives a single-input design with an explicit value sequence and
/// returns the observed per-cycle values of `watch`.
std::vector<std::uint64_t> drive(const Netlist& nl, VectorStimulus& stim, NetId watch,
                                 std::size_t cycles) {
  Simulator sim(nl);
  std::vector<std::uint64_t> observed;
  for (std::size_t i = 0; i < cycles; ++i) {
    sim.run(stim, 1);
    observed.push_back(sim.net_value(watch));
  }
  return observed;
}

TEST(Sim, CombinationalOps) {
  Netlist nl;
  NetId a = nl.add_input("a", 8);
  NetId b = nl.add_input("b", 8);
  NetId sum = nl.add_binop(CellKind::Add, "sum", a, b);
  NetId dif = nl.add_binop(CellKind::Sub, "dif", a, b);
  NetId prd = nl.add_binop(CellKind::Mul, "prd", a, b);
  NetId eq = nl.add_binop(CellKind::Eq, "eq", a, b);
  NetId lt = nl.add_binop(CellKind::Lt, "lt", a, b);
  NetId shl = nl.add_shift(CellKind::Shl, "shl", a, 2);
  NetId inv = nl.add_unop(CellKind::Not, "inv", a);
  nl.add_output("o", sum);

  ConstantStimulus stim;
  stim.set("a", 200);
  stim.set("b", 57);
  Simulator sim(nl);
  sim.run(stim, 1);
  EXPECT_EQ(sim.net_value(sum), 257u & 0xFF);
  EXPECT_EQ(sim.net_value(dif), (200u - 57u) & 0xFF);
  EXPECT_EQ(sim.net_value(prd), (200u * 57u) & 0xFFFF);
  EXPECT_EQ(sim.net_value(eq), 0u);
  EXPECT_EQ(sim.net_value(lt), 0u);
  EXPECT_EQ(sim.net_value(shl), (200u << 2) & 0xFF);
  EXPECT_EQ(sim.net_value(inv), static_cast<std::uint8_t>(~200u));
}

TEST(Sim, MuxSelectsBOnOne) {
  Netlist nl;
  NetId s = nl.add_input("s", 1);
  NetId a = nl.add_input("a", 4);
  NetId b = nl.add_input("b", 4);
  NetId m = nl.add_mux2("m", s, a, b);
  nl.add_output("o", m);
  ConstantStimulus stim;
  stim.set("a", 3);
  stim.set("b", 12);
  stim.set("s", 0);
  Simulator sim(nl);
  sim.run(stim, 1);
  EXPECT_EQ(sim.net_value(m), 3u);
  stim.set("s", 1);
  sim.run(stim, 1);
  EXPECT_EQ(sim.net_value(m), 12u);
}

TEST(Sim, RegisterCapturesOnEnable) {
  Netlist nl;
  NetId d = nl.add_input("d", 8);
  NetId en = nl.add_input("en", 1);
  NetId q = nl.add_reg("q", d, en);
  nl.add_output("o", q);

  VectorStimulus stim;
  stim.set("d", {10, 20, 30, 40});
  stim.set("en", {1, 0, 1, 0});
  // Q lags by a cycle and holds when EN was 0 at the capturing edge.
  const auto q_vals = drive(nl, stim, q, 4);
  EXPECT_EQ(q_vals, (std::vector<std::uint64_t>{0, 10, 10, 30}));
}

TEST(Sim, LatchTransparentWhileEnabled) {
  Netlist nl;
  NetId d = nl.add_input("d", 8);
  NetId en = nl.add_input("en", 1);
  NetId q = nl.add_latch("q", d, en);
  nl.add_output("o", q);

  VectorStimulus stim;
  stim.set("d", {10, 20, 30, 40});
  stim.set("en", {1, 1, 0, 0});
  const auto q_vals = drive(nl, stim, q, 4);
  // Transparent for two cycles, then holds the last transparent value.
  EXPECT_EQ(q_vals, (std::vector<std::uint64_t>{10, 20, 20, 20}));
}

TEST(Sim, IsolationCellSemantics) {
  Netlist nl;
  NetId d = nl.add_input("d", 4);
  NetId as = nl.add_input("as", 1);
  NetId ia = nl.add_iso(CellKind::IsoAnd, "ia", d, as);
  NetId io = nl.add_iso(CellKind::IsoOr, "io", d, as);
  NetId il = nl.add_iso(CellKind::IsoLatch, "il", d, as);
  nl.add_output("o", ia);

  VectorStimulus stim;
  stim.set("d", {5, 9, 11});
  stim.set("as", {1, 0, 0});
  Simulator sim(nl);
  sim.run(stim, 1);
  EXPECT_EQ(sim.net_value(ia), 5u);
  EXPECT_EQ(sim.net_value(io), 5u);
  EXPECT_EQ(sim.net_value(il), 5u);
  sim.run(stim, 1);  // AS dropped: AND forces 0, OR forces ones, latch holds
  EXPECT_EQ(sim.net_value(ia), 0u);
  EXPECT_EQ(sim.net_value(io), 0xFu);
  EXPECT_EQ(sim.net_value(il), 5u);
  sim.run(stim, 1);
  EXPECT_EQ(sim.net_value(il), 5u);
}

TEST(Sim, AccumulatorFeedback) {
  Netlist nl;
  NetId one = nl.add_const("one", 1, 1);
  NetId d0 = nl.add_const("d0", 0, 8);
  NetId acc = nl.add_reg("acc", d0, one);
  NetId in = nl.add_input("in", 8);
  NetId sum = nl.add_binop(CellKind::Add, "sum", acc, in);
  nl.reconnect_input(nl.net(acc).driver, 0, sum);
  nl.add_output("o", acc);

  ConstantStimulus stim;
  stim.set("in", 5);
  Simulator sim(nl);
  sim.run(stim, 4);
  EXPECT_EQ(sim.net_value(acc), 15u);  // 3 captured increments visible
  EXPECT_EQ(sim.net_value(sum), 20u);
}

TEST(Sim, ToggleCountsExact) {
  Netlist nl;
  NetId a = nl.add_input("a", 4);
  nl.add_output("o", a);
  VectorStimulus stim;
  stim.set("a", {0b0000, 0b1111, 0b1110, 0b1110});
  Simulator sim(nl);
  sim.run(stim, 4);
  // Toggles: 4 (0000->1111) + 1 (1111->1110) + 0 = 5 over 4 cycles.
  EXPECT_EQ(sim.stats().toggles[a.value()], 5u);
  EXPECT_NEAR(sim.stats().toggle_rate(a), 5.0 / 4.0, 1e-12);
}

TEST(Sim, ProbesMeasureJointEvents) {
  Netlist nl;
  NetId a = nl.add_input("a", 1);
  NetId b = nl.add_input("b", 1);
  nl.add_output("oa", a);
  nl.add_output("ob", b);

  ExprPool pool;
  NetVarMap vars;
  const ExprRef both = pool.land(pool.var(vars.var_of(nl, a)), pool.var(vars.var_of(nl, b)));
  Simulator sim(nl, &pool, &vars);
  const std::size_t probe = sim.add_probe(both);

  VectorStimulus stim;
  stim.set("a", {1, 1, 0, 1});
  stim.set("b", {1, 0, 1, 1});
  sim.run(stim, 4);
  EXPECT_NEAR(sim.stats().probe_probability(probe), 0.5, 1e-12);  // cycles 0 and 3
  // Value sequence of the probe: 1,0,0,1 -> two toggles.
  EXPECT_NEAR(sim.stats().probe_toggle_rate(probe), 2.0 / 4.0, 1e-12);
}

TEST(Sim, ProbesRequirePoolAndVars) {
  Netlist nl;
  NetId a = nl.add_input("a", 1);
  nl.add_output("o", a);
  Simulator sim(nl);
  ExprPool pool;
  EXPECT_THROW(sim.add_probe(pool.const1()), Error);
}

TEST(Sim, StatsAccumulateAcrossRunsAndReset) {
  Netlist nl;
  NetId a = nl.add_input("a", 1);
  nl.add_output("o", a);
  VectorStimulus stim(true);
  stim.set("a", {0, 1});
  Simulator sim(nl);
  sim.run(stim, 2);
  sim.run(stim, 2);
  EXPECT_EQ(sim.stats().cycles, 4u);
  EXPECT_EQ(sim.stats().toggles[a.value()], 3u);
  sim.reset_stats();
  EXPECT_EQ(sim.stats().cycles, 0u);
}

TEST(Sim, StatsErrorOnZeroCycles) {
  Netlist nl;
  NetId a = nl.add_input("a", 1);
  nl.add_output("o", a);
  Simulator sim(nl);
  EXPECT_THROW((void)sim.stats().toggle_rate(a), Error);
}

}  // namespace
}  // namespace opiso
