// Tests for the macro power models, the area model and the whole-design
// power estimator.
#include <gtest/gtest.h>

#include "designs/designs.hpp"
#include "power/estimator.hpp"
#include "reference_simulator.hpp"

namespace opiso {
namespace {

TEST(MacroModel, MonotoneInToggleRate) {
  MacroPowerModel m;
  const double lo = m.module_power_mw(CellKind::Add, 8, 0.5, 0.5);
  const double hi = m.module_power_mw(CellKind::Add, 8, 4.0, 4.0);
  EXPECT_GT(hi, lo);
  EXPECT_GT(lo, 0.0);  // static term keeps idle power nonzero
}

TEST(MacroModel, ZeroActivityLeavesOnlyStaticPower) {
  MacroPowerModel m;
  const double idle = m.module_power_mw(CellKind::Add, 8, 0.0, 0.0);
  EXPECT_NEAR(idle, m.static_energy_pj(CellKind::Add, 8) * m.clock_freq_mhz * 1e-3, 1e-12);
}

TEST(MacroModel, MultiplierCostsMoreThanAdder) {
  MacroPowerModel m;
  EXPECT_GT(m.module_power_mw(CellKind::Mul, 8, 2.0, 2.0),
            m.module_power_mw(CellKind::Add, 8, 2.0, 2.0));
}

TEST(MacroModel, WiderModulesCostMore) {
  MacroPowerModel m;
  EXPECT_GT(m.module_power_mw(CellKind::Add, 16, 2.0, 2.0),
            m.module_power_mw(CellKind::Add, 4, 2.0, 2.0));
}

TEST(MacroModel, LatchBankCostsMoreThanGateBank) {
  // The Sec.-6 finding hinges on latch isolation carrying a standing
  // overhead that AND/OR banks do not.
  MacroPowerModel m;
  EXPECT_GT(m.module_power_mw(CellKind::IsoLatch, 8, 1.0, 0.2),
            m.module_power_mw(CellKind::IsoAnd, 8, 1.0, 0.2));
  EXPECT_GT(m.static_energy_pj(CellKind::IsoLatch, 8),
            m.static_energy_pj(CellKind::IsoAnd, 8));
}

TEST(MacroModel, RejectsNegativeToggleRates) {
  MacroPowerModel m;
  EXPECT_THROW((void)m.module_power_mw(CellKind::Add, 8, -1.0, 0.0), Error);
}

TEST(MacroModel, LinearInPortRates) {
  // The per-port decomposition used by the savings model requires
  // p(a, b) - p(0, b) to be independent of b.
  MacroPowerModel m;
  const double d1 = m.module_power_mw(CellKind::Mul, 8, 2.0, 0.5) -
                    m.module_power_mw(CellKind::Mul, 8, 0.0, 0.5);
  const double d2 = m.module_power_mw(CellKind::Mul, 8, 2.0, 3.5) -
                    m.module_power_mw(CellKind::Mul, 8, 0.0, 3.5);
  EXPECT_NEAR(d1, d2, 1e-12);
}

TEST(AreaModel, MultiplierGrowsQuadratically) {
  AreaModel a;
  const double w8 = a.cell_area_um2(CellKind::Mul, 8);
  const double w16 = a.cell_area_um2(CellKind::Mul, 16);
  EXPECT_NEAR(w16 / w8, 4.0, 1e-9);
}

TEST(AreaModel, LatchBankLargerThanGateBank) {
  AreaModel a;
  EXPECT_GT(a.cell_area_um2(CellKind::IsoLatch, 8), a.cell_area_um2(CellKind::IsoAnd, 8));
}

TEST(AreaModel, TotalsSumOverCells) {
  Netlist nl;
  NetId x = nl.add_input("x", 8);
  NetId y = nl.add_input("y", 8);
  NetId s = nl.add_binop(CellKind::Add, "s", x, y);
  nl.add_output("o", s);
  AreaModel a;
  EXPECT_NEAR(a.total_area_um2(nl), a.cell_area_um2(CellKind::Add, 8), 1e-9);
}

TEST(Estimator, BreakdownSumsToTotal) {
  const Netlist nl = make_design1(8);
  Simulator sim(nl);
  UniformStimulus stim(5);
  sim.run(stim, 512);
  const PowerBreakdown pb = PowerEstimator().estimate(nl, sim.stats());
  double cell_sum = 0.0;
  for (double mw : pb.cell_mw) cell_sum += mw;
  EXPECT_NEAR(pb.total_mw, cell_sum, 1e-9);
  EXPECT_NEAR(pb.total_mw, pb.arith_mw + pb.steering_mw + pb.sequential_mw + pb.isolation_mw,
              1e-9);
  EXPECT_GT(pb.arith_mw, 0.0);
  EXPECT_EQ(pb.isolation_mw, 0.0);  // nothing isolated yet
}

TEST(Estimator, IdleInputsCutArithPower) {
  const Netlist nl = make_design1(8);
  PowerEstimator est;

  Simulator busy(nl);
  UniformStimulus ustim(7);
  busy.run(ustim, 512);
  const double busy_mw = est.estimate(nl, busy.stats()).total_mw;

  Simulator idle(nl);
  ConstantStimulus cstim;  // everything frozen
  idle.run(cstim, 512);
  const double idle_mw = est.estimate(nl, idle.stats()).total_mw;
  EXPECT_LT(idle_mw, busy_mw * 0.5);
}

TEST(Estimator, InputToggleRatesMatchStats) {
  Netlist nl;
  NetId a = nl.add_input("a", 4);
  NetId b = nl.add_input("b", 4);
  NetId s = nl.add_binop(CellKind::Add, "s", a, b);
  nl.add_output("o", s);
  Simulator sim(nl);
  VectorStimulus stim;
  stim.set("a", {0, 0xF, 0, 0xF});
  stim.set("b", {0, 0, 0, 0});
  sim.run(stim, 4);
  const auto rates = PowerEstimator().input_toggle_rates(nl, sim.stats(), nl.net(s).driver);
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_NEAR(rates[0], 3.0, 1e-12);  // 12 bit toggles / 4 cycles
  EXPECT_NEAR(rates[1], 0.0, 1e-12);
}

}  // namespace
}  // namespace opiso
