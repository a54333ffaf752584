// Per-cycle capture hook (sim/cycle_trace.hpp): the plane engine and
// the reference interpreter must feed a CycleSink traces that are
// BITWISE IDENTICAL — the plane engine's lane-folded per-cycle toggle
// counts equal the sample-wise sum (CycleTrace::merge) of one reference
// trace per lane with the same stimulus streams — and a trace must
// integrate back to the engine's own ActivityStats exactly, for any
// window size.
#include <gtest/gtest.h>

#include <memory>

#include "designs/designs.hpp"
#include "sim/cycle_trace.hpp"
#include "sim/parallel_sim.hpp"
#include "reference_simulator.hpp"
#include "sim/sweep.hpp"

namespace opiso {
namespace {

void expect_traces_equal(const CycleTrace& a, const CycleTrace& b) {
  ASSERT_EQ(a.num_samples(), b.num_samples());
  ASSERT_EQ(a.cycles(), b.cycles());
  ASSERT_EQ(a.lanes(), b.lanes());
  ASSERT_EQ(a.num_nets(), b.num_nets());
  for (std::size_t s = 0; s < a.num_samples(); ++s) {
    ASSERT_EQ(a.sample_cycles(s), b.sample_cycles(s)) << "sample " << s;
    ASSERT_EQ(a.sample_toggles(s), b.sample_toggles(s)) << "sample " << s;
  }
  ASSERT_EQ(a.net_totals(), b.net_totals());
}

CycleTrace capture_scalar(const Netlist& nl, UniformLane lane, std::uint64_t warmup,
                          std::uint64_t cycles, std::uint64_t window) {
  Simulator sim(nl);
  UniformStimulus stim(lane);
  if (warmup > 0) sim.warmup(stim, warmup);
  CycleTrace trace(window);
  sim.set_cycle_sink(&trace);
  sim.run(stim, cycles);
  trace.finish();
  return trace;
}

/// Differential harness: the parallel engine's trace vs the merge of
/// one scalar-lane trace per lane.
void expect_matches_scalar_oracle(const Netlist& nl, unsigned lanes, std::uint64_t cycles,
                                  std::uint64_t warmup, std::uint64_t window) {
  SCOPED_TRACE(testing::Message() << "design=" << nl.name() << " lanes=" << lanes
                                  << " cycles=" << cycles << " warmup=" << warmup
                                  << " window=" << window);
  ParallelSimulator psim(nl, lanes);
  psim.set_stimulus(
      [](unsigned lane) { return std::make_unique<UniformStimulus>(sweep_lane_seed(1, lane)); });
  if (warmup > 0) psim.warmup(warmup);
  CycleTrace ptrace(window);
  psim.set_cycle_sink(&ptrace);
  psim.run(cycles);
  ptrace.finish();

  CycleTrace oracle(window);
  oracle.finish();  // empty finished trace; merge adopts the first lane's shape
  for (unsigned l = 0; l < lanes; ++l) {
    oracle.merge(capture_scalar(nl, sweep_lane_seed(1, l), warmup, cycles, window));
  }
  expect_traces_equal(ptrace, oracle);

  // The trace also integrates back to the engine's aggregate stats.
  const ActivityStats from_trace = ptrace.to_activity_stats();
  EXPECT_EQ(from_trace.cycles, psim.stats().cycles);
  EXPECT_EQ(from_trace.toggles, psim.stats().toggles);
}

TEST(CycleTrace, ScalarTraceMatchesAggregateStats) {
  const Netlist nl = make_design1();
  Simulator sim(nl);
  UniformStimulus stim(7);
  sim.warmup(stim, 16);
  CycleTrace trace(1);
  sim.set_cycle_sink(&trace);
  sim.run(stim, 200);
  trace.finish();

  EXPECT_EQ(trace.cycles(), 200u);
  EXPECT_EQ(trace.lanes(), 1u);
  EXPECT_EQ(trace.num_samples(), 200u);
  const ActivityStats from_trace = trace.to_activity_stats();
  EXPECT_EQ(from_trace.cycles, sim.stats().cycles);
  EXPECT_EQ(from_trace.toggles, sim.stats().toggles);
}

TEST(CycleTrace, WindowingPreservesSumsExactly) {
  const Netlist nl = make_design2();
  // Same run, three window sizes; 77 is deliberately not a divisor of
  // 300 so the trailing partial sample is exercised.
  const CycleTrace full = capture_scalar(nl, {3}, 8, 300, 1);
  for (std::uint64_t window : {4u, 77u, 300u, 1000u}) {
    const CycleTrace folded = capture_scalar(nl, {3}, 8, 300, window);
    SCOPED_TRACE(testing::Message() << "window=" << window);
    EXPECT_EQ(folded.cycles(), full.cycles());
    EXPECT_EQ(folded.net_totals(), full.net_totals());
    std::uint64_t covered = 0;
    for (std::size_t s = 0; s < folded.num_samples(); ++s) covered += folded.sample_cycles(s);
    EXPECT_EQ(covered, 300u);
    // Sample-wise refold of the full-resolution trace.
    for (std::size_t s = 0; s < folded.num_samples(); ++s) {
      std::vector<std::uint64_t> expect(nl.num_nets(), 0);
      for (std::uint64_t c = s * window; c < std::min<std::uint64_t>((s + 1) * window, 300);
           ++c) {
        const std::vector<std::uint64_t>& t = full.sample_toggles(c);
        for (std::size_t n = 0; n < t.size(); ++n) expect[n] += t[n];
      }
      EXPECT_EQ(folded.sample_toggles(s), expect) << "sample " << s;
    }
  }
}

TEST(CycleTrace, FirstObservedCycleHasZeroTogglesWithoutWarmup) {
  const Netlist nl = make_fig1();
  Simulator sim(nl);
  UniformStimulus stim(1);
  CycleTrace trace(1);
  sim.set_cycle_sink(&trace);
  sim.run(stim, 10);
  trace.finish();
  for (std::uint64_t t : trace.sample_toggles(0)) EXPECT_EQ(t, 0u);
  const ActivityStats from_trace = trace.to_activity_stats();
  EXPECT_EQ(from_trace.toggles, sim.stats().toggles);
}

TEST(CycleTrace, ValueSnapshotsFollowScalarEngine) {
  const Netlist nl = make_fig1();
  Simulator sim(nl);
  UniformStimulus stim(5);
  CycleTrace trace(1, /*record_values=*/true);
  sim.set_cycle_sink(&trace);
  sim.run(stim, 25);
  trace.finish();
  ASSERT_TRUE(trace.has_values());
  ASSERT_EQ(trace.num_samples(), 25u);
  // The last sample's snapshot is the simulator's current settled state
  // pre-clock-edge... the simulator has clocked since, so just check
  // shape and that snapshots change over time for some net.
  ASSERT_EQ(trace.sample_values(0).size(), nl.num_nets());
  bool any_changed = false;
  for (std::size_t s = 1; s < trace.num_samples() && !any_changed; ++s) {
    any_changed = trace.sample_values(s) != trace.sample_values(s - 1);
  }
  EXPECT_TRUE(any_changed);
}

TEST(CycleTrace, ParallelMatchesScalarOracle) {
  for (const Netlist& nl : {make_fig1(), make_design1(), make_design2()}) {
    for (unsigned lanes : {1u, 3u, 64u}) {
      expect_matches_scalar_oracle(nl, lanes, 64, /*warmup=*/2, /*window=*/1);
    }
    expect_matches_scalar_oracle(nl, 8, 100, /*warmup=*/0, /*window=*/7);
  }
}

TEST(CycleTrace, MergeRequiresMatchingShape) {
  const CycleTrace a = capture_scalar(make_fig1(), {1}, 0, 10, 1);
  CycleTrace b = capture_scalar(make_fig1(), {2}, 0, 20, 1);
  EXPECT_THROW(b.merge(a), Error);
}

TEST(CycleTrace, DetachedSinkStopsCapture) {
  const Netlist nl = make_fig1();
  Simulator sim(nl);
  UniformStimulus stim(1);
  CycleTrace trace(1);
  sim.set_cycle_sink(&trace);
  sim.run(stim, 5);
  sim.set_cycle_sink(nullptr);
  sim.run(stim, 5);
  trace.finish();
  EXPECT_EQ(trace.cycles(), 5u);
  EXPECT_EQ(sim.stats().cycles, 10u);
}

}  // namespace
}  // namespace opiso
