// Batch-means confidence layer: the windows' integer cells must be
// bitwise identical for every partition of the lanes x frames work
// across merge calls (this is what makes the opiso.confidence/v1
// section lane/thread/width-invariant), the Student-t quantiles must
// match closed forms, and — the statistical contract — roughly 95% of
// the reported 95% intervals must actually cover the long-run truth.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <span>
#include <sstream>
#include <vector>

#include "designs/designs.hpp"
#include "isolation/algorithm.hpp"
#include "obs/confidence.hpp"
#include "power/estimator.hpp"
#include "reference_simulator.hpp"
#include "sim/stimulus.hpp"
#include "sim/sweep.hpp"

namespace opiso {
namespace {

using obs::SeriesInterval;
using obs::WindowCounts;

TEST(TQuantile, MatchesClosedFormsAndNormalLimit) {
  // df = 1: t = tan(pi * level / 2).
  EXPECT_NEAR(obs::student_t_quantile(0.95, 1), 12.7062047362, 1e-6);
  EXPECT_NEAR(obs::student_t_quantile(0.50, 1), 1.0, 1e-12);
  // df = 2: closed form sqrt(2/(a(2-a)) - 2), a = 1 - level.
  EXPECT_NEAR(obs::student_t_quantile(0.95, 2), 4.3026527297, 1e-6);
  // Reference values (df >= 3 uses the Cornish-Fisher expansion).
  EXPECT_NEAR(obs::student_t_quantile(0.95, 5), 2.5705818356, 1e-3);
  EXPECT_NEAR(obs::student_t_quantile(0.95, 15), 2.1314495456, 1e-4);
  EXPECT_NEAR(obs::student_t_quantile(0.99, 15), 2.9467128835, 1e-3);
  // Large df converges to the normal quantile.
  EXPECT_NEAR(obs::student_t_quantile(0.95, 100000), 1.9599639845, 1e-4);
  // Monotone: wider level and fewer df both widen the interval.
  EXPECT_GT(obs::student_t_quantile(0.99, 10), obs::student_t_quantile(0.95, 10));
  EXPECT_GT(obs::student_t_quantile(0.95, 3), obs::student_t_quantile(0.95, 30));
}

TEST(WindowCounts, WindowsFillAndPartialTrailing) {
  const std::vector<std::uint32_t> none;
  WindowCounts off;
  EXPECT_FALSE(off.enabled());
  off.add_frame(std::vector<std::uint32_t>{1, 2}, none);  // no-op while disabled
  EXPECT_EQ(off.frames(), 0u);
  WindowCounts acc(4);
  ASSERT_TRUE(acc.enabled());
  for (std::uint32_t f = 0; f < 10; ++f) acc.add_frame(std::vector<std::uint32_t>{1, f}, none);
  EXPECT_EQ(acc.frames(), 10u);
  EXPECT_EQ(acc.complete_windows(), 2u);  // trailing 2 frames stay partial
  EXPECT_EQ(acc.num_windows(), 3u);
  EXPECT_EQ(acc.frames_in(1), 4u);
  EXPECT_EQ(acc.frames_in(2), 2u);
  EXPECT_EQ(acc.cell(0, 0), 4u);
  EXPECT_EQ(acc.cell(0, 1), 0u + 1 + 2 + 3);
  EXPECT_EQ(acc.cell(1, 1), 4u + 5 + 6 + 7);
  EXPECT_EQ(acc.cell(2, 0), 2u);  // partial window carried exactly
  acc.reset();
  EXPECT_TRUE(acc.enabled());
  EXPECT_EQ(acc.frames(), 0u);
}

/// Deterministic synthetic event count for (frame, lane, series).
std::uint64_t event_count(std::uint64_t frame, unsigned lane, std::size_t series) {
  std::uint64_t h = frame * 0x9E3779B97F4A7C15ull + lane * 0xBF58476D1CE4E5B9ull +
                    series * 0x94D049BB133111EBull + 1;
  h ^= h >> 31;
  return h % 5;  // small counts, like per-frame bit toggles
}

/// One window store covering `lanes` (a subset) over `frames` frames;
/// the first `num_series / 2` columns are nets, the rest probes.
WindowCounts accumulate_lanes(const std::vector<unsigned>& lanes, std::uint64_t frames,
                              std::size_t num_series, std::uint32_t batch_frames) {
  WindowCounts acc(batch_frames);
  std::vector<std::uint32_t> counts(num_series);
  for (std::uint64_t f = 0; f < frames; ++f) {
    std::fill(counts.begin(), counts.end(), 0);
    for (unsigned lane : lanes) {
      for (std::size_t s = 0; s < num_series; ++s) {
        counts[s] += static_cast<std::uint32_t>(event_count(f, lane, s));
      }
    }
    const std::span<const std::uint32_t> all(counts);
    acc.add_frame(all.first(num_series / 2), all.subspan(num_series / 2));
  }
  return acc;
}

void expect_same_cells(const WindowCounts& a, const WindowCounts& b) {
  ASSERT_EQ(a.frames(), b.frames());
  ASSERT_EQ(a.complete_windows(), b.complete_windows());
  ASSERT_EQ(a.num_nets(), b.num_nets());
  EXPECT_EQ(a, b);
}

// The tentpole invariant, fuzzed: for ANY partition of the lanes into
// groups (one accumulator per group, as per-thread or per-lane engines
// produce) and ANY merge order, the merged cells are bitwise identical
// to the single-pass reference. Integer addition is associative and
// commutative; this test pins that the implementation actually leans
// on nothing else.
TEST(WindowCounts, MergeInvariantUnderAnyLanePartitionFuzz) {
  std::mt19937 rng(0xC0FFEEu);  // fixed seed: failures must reproduce
  for (int iter = 0; iter < 60; ++iter) {
    const unsigned num_lanes = 1 + rng() % 8;
    const std::size_t num_series = 1 + rng() % 6;
    const std::uint32_t batch_frames = 1 + rng() % 7;
    const std::uint64_t frames = 1 + rng() % 40;

    std::vector<unsigned> all_lanes(num_lanes);
    std::iota(all_lanes.begin(), all_lanes.end(), 0u);
    const WindowCounts ref = accumulate_lanes(all_lanes, frames, num_series, batch_frames);

    // Random partition: shuffle the lanes, cut into 1..num_lanes groups.
    std::shuffle(all_lanes.begin(), all_lanes.end(), rng);
    const unsigned groups = 1 + rng() % num_lanes;
    std::vector<WindowCounts> parts;
    for (unsigned g = 0; g < groups; ++g) {
      std::vector<unsigned> mine;
      for (unsigned i = g; i < num_lanes; i += groups) mine.push_back(all_lanes[i]);
      if (mine.empty()) continue;
      parts.push_back(accumulate_lanes(mine, frames, num_series, batch_frames));
    }
    // Random merge order — commutativity — folded pairwise in a random
    // tree shape — associativity.
    std::shuffle(parts.begin(), parts.end(), rng);
    while (parts.size() > 1) {
      const std::size_t i = rng() % (parts.size() - 1);
      parts[i].merge(parts[i + 1]);
      parts.erase(parts.begin() + static_cast<std::ptrdiff_t>(i) + 1);
    }
    // Merging into a store without frames adopts the other side.
    WindowCounts from_empty;
    from_empty.merge(parts[0]);
    expect_same_cells(ref, parts[0]);
    expect_same_cells(ref, from_empty);
  }
}

TEST(BatchInterval, DegenerateAndConstantSeries) {
  const std::vector<std::uint32_t> two = {2};
  WindowCounts acc(4);
  // One complete window: no interval yet.
  for (int f = 0; f < 4; ++f) acc.add_frame(two, {});
  SeriesInterval one = obs::batch_interval(acc, 0, 1, 0.95);
  EXPECT_EQ(one.batches, 1u);
  EXPECT_DOUBLE_EQ(one.halfwidth, 0.0);
  // Constant rate across windows: zero variance, zero half-width.
  for (int f = 0; f < 12; ++f) acc.add_frame(two, {});
  SeriesInterval flat = obs::batch_interval(acc, 0, 1, 0.95);
  EXPECT_EQ(flat.batches, 4u);
  EXPECT_DOUBLE_EQ(flat.mean, 2.0);
  EXPECT_DOUBLE_EQ(flat.halfwidth, 0.0);
}

// End-to-end identity on the real pipeline: a plain sweep task with
// confidence enabled must emit byte-identical opiso.confidence/v1 and
// opiso.coverage/v1 sections on one worker thread or eight, and both
// must equal the sections built from one reference-interpreter run per
// lane, merged.
TEST(SweepConfidence, SectionsMatchMergedReferenceRunsOnAnyThreadCount) {
  std::vector<SweepTask> tasks;
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    SweepTask t;
    t.design = "design1";
    t.make_design = [] { return make_design1(); };
    t.seed = seed;
    t.options.sim_lanes = 16;
    t.options.sim_cycles = 16 * 128;  // 128 cycles per lane
    t.options.warmup_cycles = 0;
    t.options.confidence.enabled = true;
    t.options.confidence.batch_frames = 2;
    tasks.push_back(t);
  }
  const std::vector<SweepResult> par1 = SweepRunner(1).run(tasks).results;
  const std::vector<SweepResult> par8 = SweepRunner(8).run(tasks).results;
  ASSERT_EQ(par1.size(), tasks.size());
  const Netlist design = make_design1();
  const std::vector<double> weights = PowerEstimator().net_toggle_weights(design);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const IsolationOptions& opt = tasks[i].options;
    ActivityStats merged;
    for (unsigned lane = 0; lane < opt.sim_lanes; ++lane) {
      Simulator sim(design);
      sim.enable_batch_stats(opt.confidence.batch_frames);
      UniformStimulus stim(sweep_lane_seed(tasks[i].seed, lane));
      sim.run(stim, opt.sim_cycles / opt.sim_lanes);
      merged.merge(sim.stats());
    }
    const obs::JsonValue confidence = build_confidence_section(
        design, merged, opt.confidence, weights, PowerEstimator().static_mw(design));
    EXPECT_FALSE(par1[i].confidence.is_null());
    EXPECT_EQ(par1[i].confidence.dump(), par8[i].confidence.dump());
    EXPECT_EQ(par1[i].confidence.dump(), confidence.dump());
    EXPECT_EQ(par1[i].coverage.dump(), build_coverage_section(design, merged, {}).dump());
    EXPECT_EQ(par1[i].coverage.dump(), par8[i].coverage.dump());
  }
}

// The design-power interval is centred on the design's power: the
// macro model's toggle-independent term plus Σ weight·Tr — the power
// the same measurement round reports, one lane or many.
TEST(IsolateConfidence, MeanIsTheDesignPower) {
  for (const Netlist& design : {make_fig1(), make_design1()}) {
    for (bool lanes : {false, true}) {
      SCOPED_TRACE(testing::Message() << design.name() << (lanes ? " 64 lanes" : " one lane"));
      IsolationOptions opt;
      opt.sim_cycles = 8192;
      opt.confidence.enabled = true;
      if (lanes) {
        opt.lane_stimuli = [](unsigned lane) {
          return std::make_unique<UniformStimulus>(sweep_lane_seed(1, lane));
        };
      }
      const IsolationResult res = run_operand_isolation(
          design, [] { return std::make_unique<UniformStimulus>(1); }, opt);
      const double mean = res.confidence.at("power_mw").at("mean_mw").as_number();
      EXPECT_NEAR(mean, res.power_after_mw, 1e-9 * res.power_after_mw);
    }
  }
}

TEST(SweepConfidence, MeanIsTheRowPower) {
  SweepTask t;
  t.design = "design1";
  t.make_design = [] { return make_design1(); };
  t.options.sim_lanes = 16;
  t.options.sim_cycles = 16 * 256;  // 256 cycles per lane
  t.options.warmup_cycles = 0;
  t.options.confidence.enabled = true;
  const SweepResult r = run_sweep_task(t);
  const double mean = r.confidence.at("power_mw").at("mean_mw").as_number();
  EXPECT_NEAR(mean, r.power_mw, 1e-9 * r.power_mw);
}

// Statistical calibration: run many short fixed-seed measurements of
// design1, report a 95% CI on the macro-model power each time, and
// check the intervals cover the long-run truth at roughly the nominal
// rate. The run is fully deterministic (fixed seeds), so the observed
// coverage is a constant of the implementation; the [90%, 99%] band
// allows the usual batch-means small-sample optimism without letting a
// broken variance estimate through.
TEST(Calibration, NinetyFivePercentIntervalsCoverLongRunTruth) {
  const Netlist design = make_design1();
  PowerEstimator estimator;
  const std::vector<double> weights = estimator.net_toggle_weights(design);

  // Long-run truth: one scalar run two orders of magnitude longer than
  // the measured runs.
  double truth = 0.0;
  {
    Simulator sim(design);
    UniformStimulus stim(12345);
    sim.warmup(stim, 256);
    sim.run(stim, 1u << 18);
    const ActivityStats& st = sim.stats();
    for (std::size_t n = 0; n < weights.size(); ++n) {
      truth += weights[n] * st.toggle_rate(NetId(static_cast<std::uint32_t>(n)));
    }
  }

  const int kRuns = 100;
  const std::uint64_t kCycles = 4096;
  int covered = 0;
  for (int run = 0; run < kRuns; ++run) {
    Simulator sim(design);
    sim.enable_batch_stats(16);
    UniformStimulus stim(1000 + static_cast<std::uint64_t>(run));
    sim.warmup(stim, 256);
    sim.run(stim, kCycles);
    const SeriesInterval ci =
        obs::weighted_interval(sim.stats().windows, weights, /*lanes=*/1, 0.95);
    ASSERT_EQ(ci.batches, kCycles / 16);
    ASSERT_GT(ci.halfwidth, 0.0);
    if (std::abs(ci.mean - truth) <= ci.halfwidth) ++covered;
  }
  EXPECT_GE(covered, 90) << "95% CIs cover the truth only " << covered << "/100 times";
  EXPECT_LE(covered, 99) << "95% CIs are too wide: covered " << covered << "/100 times";
}

}  // namespace
}  // namespace opiso
