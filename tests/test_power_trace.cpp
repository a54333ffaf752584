// Per-cycle energy waveform (power/power_trace.hpp). The load-bearing
// invariant: the waveform INTEGRATES EXACTLY to the aggregate numbers —
// per cell and in total, in integer femtojoules, for any window size and
// lane count — and the trace covers exactly the toggles and cycles of
// the ActivityStats that PowerEstimator prices.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "designs/designs.hpp"
#include "obs/wave.hpp"
#include "power/power_trace.hpp"
#include "sim/cycle_trace.hpp"
#include "sim/parallel_sim.hpp"
#include "reference_simulator.hpp"
#include "sim/sweep.hpp"

namespace opiso {
namespace {

struct Captured {
  CycleTrace trace{1};
  ActivityStats stats;
};

Captured capture(const Netlist& nl, std::uint64_t window, bool parallel) {
  Captured c;
  c.trace = CycleTrace(window);
  if (parallel) {
    ParallelSimulator sim(nl, 8);
    sim.set_stimulus([](unsigned lane) {
      return std::make_unique<UniformStimulus>(sweep_lane_seed(1, lane));
    });
    sim.warmup(4);
    sim.set_cycle_sink(&c.trace);
    sim.run(64);
    c.stats = sim.stats();
  } else {
    Simulator sim(nl);
    UniformStimulus stim(1);
    sim.warmup(stim, 32);
    sim.set_cycle_sink(&c.trace);
    sim.run(stim, 512);
    c.stats = sim.stats();
  }
  return c;
}

void expect_integral_equals_aggregate(const Netlist& nl, const Captured& c) {
  const MacroPowerModel model{};
  const PowerTrace pt = compute_power_trace(nl, c.trace, model);

  // Per cell: Σ_samples cell_fj[c][s] == cell_total_fj[c] ==
  // cell_energy_fj(aggregate stats), exactly.
  std::uint64_t total = 0;
  for (CellId id : nl.cell_ids()) {
    const std::size_t ci = id.value();
    std::uint64_t sum = 0;
    for (std::uint64_t e : pt.cell_fj[ci]) sum += e;
    EXPECT_EQ(sum, pt.cell_total_fj[ci]) << "cell " << nl.cell(id).name;
    EXPECT_EQ(sum, cell_energy_fj(nl, c.stats, id, model)) << "cell " << nl.cell(id).name;
    total += sum;
  }
  EXPECT_EQ(total, pt.total_energy_fj);

  // Per sample: category energies partition the total.
  for (std::size_t s = 0; s < pt.num_samples(); ++s) {
    EXPECT_EQ(pt.arith_fj[s] + pt.steering_fj[s] + pt.sequential_fj[s] + pt.isolation_fj[s],
              pt.total_fj[s])
        << "sample " << s;
  }

  // Double bridge: the trace's column sums and lane-cycles are the
  // aggregate statistics the estimator prices...
  const obs::WindowCounts& w = c.trace.windows();
  std::vector<std::uint64_t> totals(nl.num_nets(), 0);
  for (std::uint64_t s = 0; s < w.num_windows(); ++s) {
    for (std::size_t n = 0; n < totals.size(); ++n) totals[n] += w.nets(s)[n];
  }
  EXPECT_EQ(totals, c.stats.toggles);
  EXPECT_EQ(pt.lane_cycles(), c.stats.cycles);
  const double agg_mw = PowerEstimator(model).estimate(nl, c.stats).total_mw;
  // ...and the direct integer-integral conversion agrees to < 1e-9
  // relative (documented tolerance of the fJ→mW bridge).
  EXPECT_NEAR(pt.avg_power_mw(), agg_mw, std::abs(agg_mw) * 1e-9);
}

TEST(PowerTrace, IntegralEqualsAggregateScalar) {
  for (const Netlist& nl : {make_fig1(), make_design1(), make_design2()}) {
    for (std::uint64_t window : {1u, 7u, 512u}) {
      SCOPED_TRACE(testing::Message() << nl.name() << " window=" << window);
      expect_integral_equals_aggregate(nl, capture(nl, window, /*parallel=*/false));
    }
  }
}

TEST(PowerTrace, IntegralEqualsAggregateParallel) {
  for (const Netlist& nl : {make_fig1(), make_design1(), make_design2()}) {
    SCOPED_TRACE(nl.name());
    expect_integral_equals_aggregate(nl, capture(nl, 4, /*parallel=*/true));
  }
}

TEST(PowerTrace, CoefficientsAreExactIntegerFemtojoules) {
  // The invariant only holds because every macro-model coefficient is an
  // exact multiple of 1 fJ: llround must land on a value that converts
  // back to the double coefficient exactly.
  const MacroPowerModel model{};
  for (int k = 0; k < kNumCellKinds; ++k) {
    const auto kind = static_cast<CellKind>(k);
    const int ports = cell_kind_num_inputs(kind);
    for (unsigned width : {1u, 8u, 16u, 32u, 64u}) {
      // fJ value × 1e-3 must recover the pJ coefficient to far better
      // than the 0.0005 pJ llround decision margin — i.e. the double
      // coefficient sits on the 1 fJ grid, not near a rounding boundary.
      const std::int64_t st = static_energy_fj(model, kind, width);
      EXPECT_NEAR(static_cast<double>(st), model.static_energy_pj(kind, width) * 1000.0, 1e-6)
          << cell_kind_name(kind) << " w=" << width;
      for (int p = 0; p < ports; ++p) {
        const std::int64_t e = energy_per_toggle_fj(model, kind, width, p);
        EXPECT_NEAR(static_cast<double>(e), model.energy_per_toggle_pj(kind, width, p) * 1000.0,
                    1e-6)
            << cell_kind_name(kind) << " w=" << width << " port=" << p;
      }
    }
  }
}

TEST(PowerTrace, RejectsForeignTrace) {
  const Netlist nl1 = make_fig1();
  const Netlist nl2 = make_design1();
  const Captured c = capture(nl1, 1, false);
  EXPECT_THROW((void)compute_power_trace(nl2, c.trace), Error);
}

// An idle interval is a maximal run of samples where the isolated trace
// spent strictly less energy; a sample with equal or higher energy ends
// it, and the interval sums exceed the total by the overhead samples.
TEST(WaveCompare, IdleIntervalsSplitAtSamplesWithoutSavings) {
  PowerTrace orig;
  orig.cycles = 12;
  orig.window = 2;
  orig.sample_cycles = {2, 2, 2, 2, 2, 2};
  PowerTrace iso = orig;
  orig.total_fj = {100, 100, 100, 100, 100, 100};
  iso.total_fj = {90, 80, 100, 120, 70, 100};
  orig.total_energy_fj = 600;
  iso.total_energy_fj = 560;

  const obs::JsonValue doc = obs::build_wave_compare(Netlist{}, orig, Netlist{}, iso, {}, "t");
  const auto& ivs = doc.at("idle_intervals").elements();
  ASSERT_EQ(ivs.size(), 2u);
  EXPECT_EQ(ivs[0].at("name").as_string(), "idle[0,4)");
  EXPECT_EQ(ivs[0].at("samples").as_uint64(), 2u);
  EXPECT_EQ(ivs[0].at("reclaimed_fj").as_int64(), 30);
  EXPECT_EQ(ivs[1].at("name").as_string(), "idle[8,10)");
  EXPECT_EQ(ivs[1].at("samples").as_uint64(), 1u);
  EXPECT_EQ(ivs[1].at("reclaimed_fj").as_int64(), 30);
  EXPECT_EQ(doc.at("reclaimed_in_intervals_fj").as_int64(), 60);
  EXPECT_EQ(doc.at("reclaimed_total_fj").as_int64(), 40);
}

}  // namespace
}  // namespace opiso
