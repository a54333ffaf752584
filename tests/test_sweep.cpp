// Fan-out and sweep runner: deterministic parallelism. parallel_for
// must run every task exactly once on workers it starts and joins
// itself, never more workers than tasks, and propagate failures; the
// sweep runner must produce results that are bitwise independent of the
// thread count and equal to one reference-interpreter run per lane,
// merged.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "designs/designs.hpp"
#include "isolation/algorithm.hpp"
#include "obs/metrics.hpp"
#include "power/estimator.hpp"
#include "reference_simulator.hpp"
#include "sim/sweep.hpp"
#include "util/parallel_for.hpp"

namespace opiso {
namespace {

TEST(ParallelFor, RunsEveryTaskExactlyOnce) {
  std::vector<std::atomic<int>> hits(100);
  parallel_for(4, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, HandlesEmptyAndRepeatedCalls) {
  parallel_for(2, 0, [](std::size_t) { FAIL() << "no tasks expected"; });
  std::atomic<int> count{0};
  for (int round = 0; round < 10; ++round) {
    parallel_for(2, 7, [&](std::size_t) { count.fetch_add(1); });
  }
  EXPECT_EQ(count.load(), 70);
}

TEST(ParallelFor, PropagatesTheSmallestFailingIndex) {
  try {
    parallel_for(4, 50, [](std::size_t i) {
      if (i == 7 || i == 31) throw std::runtime_error("task " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 7");
  }
  // A failed call leaves nothing behind for the next one.
  std::atomic<int> ok{0};
  parallel_for(4, 3, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 3);
}

TEST(ParallelFor, StartsNoMoreWorkersThanTasks) {
  // Eight threads asked for, three tasks: three workers start, each on
  // a thread of its own, and the caller runs none of the tasks.
  std::mutex mu;
  std::set<std::thread::id> ids;
  parallel_for(8, 3, [&](std::size_t) {
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_EQ(obs::metrics().gauge("pool.workers").value(), 3.0);
  EXPECT_EQ(ids.count(std::this_thread::get_id()), 0u);
  EXPECT_LE(ids.size(), 3u);
  EXPECT_EQ(resolve_threads(8), 8u);
  EXPECT_GE(resolve_threads(0), 1u);
}

/// A plain task on `lanes` lanes of `cycles` cycles each, after
/// `warmup` discarded cycles per lane (the options count both summed
/// over the lanes).
SweepTask plain_task(const std::string& design, std::function<Netlist()> make,
                     std::uint64_t seed, unsigned lanes, std::uint64_t cycles,
                     std::uint64_t warmup = 0) {
  SweepTask t;
  t.design = design;
  t.make_design = std::move(make);
  t.seed = seed;
  t.options.sim_lanes = lanes;
  t.options.sim_cycles = cycles * lanes;
  t.options.warmup_cycles = warmup * lanes;
  return t;
}

std::vector<SweepTask> demo_tasks() {
  std::vector<SweepTask> tasks;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    tasks.push_back(plain_task("design2", [] { return make_design2(); }, seed, 64, 64));
  }
  return tasks;
}

TEST(SweepRunner, ResultsIndependentOfThreadCount) {
  const std::vector<SweepTask> tasks = demo_tasks();
  const SweepOutcome out1 = SweepRunner(1).run(tasks);
  const SweepOutcome out8 = SweepRunner(8).run(tasks);
  ASSERT_TRUE(out1.ok());
  ASSERT_TRUE(out8.ok());
  const std::vector<SweepResult>& one = out1.results;
  const std::vector<SweepResult>& eight = out8.results;
  ASSERT_EQ(one.size(), tasks.size());
  ASSERT_EQ(eight.size(), tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(one[i].design, eight[i].design);
    EXPECT_EQ(one[i].seed, eight[i].seed);
    EXPECT_EQ(one[i].toggles, eight[i].toggles);
    EXPECT_EQ(one[i].lane_cycles, eight[i].lane_cycles);
    EXPECT_EQ(one[i].power_mw, eight[i].power_mw);  // bitwise, not approximate
  }
}

/// What a plain task must report: one reference-interpreter run per
/// lane on the lane's stream, merged in lane order. The tasks above
/// split their cycles and warmup evenly across the lanes.
SweepResult reference_result(const SweepTask& t) {
  const Netlist nl = t.make_design();
  const unsigned lanes = t.options.sim_lanes;
  ActivityStats merged;
  for (unsigned lane = 0; lane < lanes; ++lane) {
    Simulator sim(nl);
    UniformStimulus stim(sweep_lane_seed(t.seed, lane));
    if (t.options.warmup_cycles > 0) sim.warmup(stim, t.options.warmup_cycles / lanes);
    sim.run(stim, t.options.sim_cycles / lanes);
    merged.merge(sim.stats());
  }
  SweepResult r;
  r.design = t.design;
  r.seed = t.seed;
  r.lanes = lanes;
  r.lane_cycles = merged.cycles;
  for (std::uint64_t n : merged.toggles) r.toggles += n;
  r.power_mw = PowerEstimator().estimate(nl, merged).total_mw;
  return r;
}

TEST(SweepRunner, MatchesMergedReferenceRuns) {
  const std::vector<SweepTask> tasks = demo_tasks();
  const std::vector<SweepResult> got = SweepRunner(2).run(tasks).results;
  ASSERT_EQ(got.size(), tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const SweepResult want = reference_result(tasks[i]);
    EXPECT_EQ(got[i].toggles, want.toggles);
    EXPECT_EQ(got[i].lane_cycles, want.lane_cycles);
    EXPECT_EQ(got[i].power_mw, want.power_mw);  // bitwise, not approximate
  }
}

TEST(SweepRunner, PartialLaneCountsAndWarmupMatchReference) {
  // 5 lanes: not a multiple of anything convenient.
  const SweepTask t = plain_task("fig1", [] { return make_fig1(); }, 1, 5, 128, 7);
  const SweepResult p = run_sweep_task(t);
  const SweepResult want = reference_result(t);
  EXPECT_EQ(p.lane_cycles, 5u * 128u);
  EXPECT_EQ(p.toggles, want.toggles);
  EXPECT_EQ(p.power_mw, want.power_mw);
}

TEST(SweepReport, EqualsTheReportOfMergedReferenceRuns) {
  const std::vector<SweepTask> tasks = demo_tasks();
  SweepOutcome want;
  for (const SweepTask& t : tasks) want.results.push_back(reference_result(t));
  std::ostringstream a, b;
  build_sweep_report(SweepRunner(4).run(tasks)).write(a, 1);
  build_sweep_report(want).write(b, 1);
  EXPECT_EQ(a.str(), b.str());
}

TEST(SweepReport, CarriesSchemaAndTotals) {
  const obs::JsonValue doc = build_sweep_report(SweepRunner(2).run(demo_tasks()));
  EXPECT_EQ(doc.at("schema").as_string(), "opiso.sweep/v1");
  EXPECT_EQ(doc.at("totals").at("tasks").as_number(), 3.0);
  EXPECT_EQ(doc.at("tasks").at(0).at("design").as_string(), "design2");
  EXPECT_GT(doc.at("totals").at("toggles").as_number(), 0.0);
}

// An isolate task is one run_operand_isolation call on the task's
// options with the seed's lane streams; each of its rounds measures
// max(1, sim_cycles / lanes) cycles per lane.
TEST(SweepTask, IsolateTaskIsOneAlgorithm1Run) {
  SweepTask t;
  t.design = "design1";
  t.make_design = [] { return make_design1(); };
  t.seed = 3;
  t.options.sim_lanes = 64;
  t.options.sim_cycles = 1000;  // 15 cycles per lane, 40 left over
  t.isolate = true;
  const SweepResult got = run_sweep_task(t);

  IsolationOptions opt = t.options;
  opt.lane_stimuli = [](unsigned lane) {
    return std::make_unique<UniformStimulus>(sweep_lane_seed(3, lane));
  };
  const IsolationResult want = run_operand_isolation(make_design1(), nullptr, opt);
  ASSERT_GT(want.records.size(), 0u);
  EXPECT_TRUE(got.isolated_mode);
  EXPECT_EQ(got.iterations, want.iterations.size());
  EXPECT_EQ(got.lane_cycles, (want.iterations.size() + 1) * 64u * 15u);
  EXPECT_EQ(got.modules_isolated, want.records.size());
  EXPECT_EQ(got.power_before_mw, want.power_before_mw);  // bitwise, not approximate
  EXPECT_EQ(got.power_after_mw, want.power_after_mw);
}

// With --rewrite an isolate task also simulates the rewriter's 288-cycle
// profiling run and one round on the input design; without a warmup its
// lane_cycles is every cycle the engine ran.
TEST(SweepTask, RewriteTaskCountsEverySimulatedCycle) {
  SweepTask t;
  t.design = "shared_add";
  t.make_design = [] {
    // Two adds behind a mux: the rewriter factors out one of them.
    Netlist nl;
    const NetId a = nl.add_input("a", 8);
    const NetId b = nl.add_input("b", 8);
    const NetId c = nl.add_input("c", 8);
    const NetId s = nl.add_input("s", 1);
    const NetId add1 = nl.add_binop(CellKind::Add, "add1", a, c);
    const NetId add2 = nl.add_binop(CellKind::Add, "add2", b, c);
    nl.add_output("o", nl.add_mux2("m", s, add1, add2));
    return nl;
  };
  t.seed = 2;
  t.options.sim_lanes = 64;
  t.options.sim_cycles = 1024;
  t.options.warmup_cycles = 0;  // as `opiso sweep` without --warmup
  t.options.rewrite = true;
  t.isolate = true;
  const obs::Counter& cycles = obs::metrics().counter("sim.cycles");
  const std::uint64_t before = cycles.value();
  const SweepOutcome out = SweepRunner(1).run({t});
  ASSERT_TRUE(out.ok());
  const SweepResult& got = out.results[0];
  EXPECT_EQ(got.lane_cycles, cycles.value() - before);
  // The iterations' rounds, the final one, the input round, the profile.
  EXPECT_EQ(got.lane_cycles, (got.iterations + 2) * 1024 + 288);
}

TEST(SweepLaneSeed, NamesLaneOfTheSeedsFamily) {
  EXPECT_EQ(sweep_lane_seed(1, 0), (UniformLane{1, 0}));
  EXPECT_EQ(sweep_lane_seed(7, 300), (UniformLane{7, 300}));
  EXPECT_EQ(UniformStimulus(sweep_lane_seed(5, 9)).lane(), (UniformLane{5, 9}));
  EXPECT_EQ(UniformStimulus(5).lane(), sweep_lane_seed(5, 0));
}

// ---------------------------------------------------- robustness layer

TEST(ParallelFor, CountsTaskFailuresInMetrics) {
  obs::metrics().counter("pool.task_failures").reset();
  try {
    parallel_for(4, 20, [](std::size_t i) {
      if (i % 5 == 0) throw std::runtime_error("boom " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 0");
  }
  // Every throwing task is counted, not just the propagated first one.
  EXPECT_EQ(obs::metrics().counter("pool.task_failures").value(), 4u);
}

TEST(ParallelFor, SurvivesFailureStorms) {
  // Quick alternating throwing/clean calls: every task of every call
  // runs exactly once, a failure never leaks into the next call, and no
  // call deadlocks (the ctest TIMEOUT backs the latter). Under TSan
  // this checks that the join orders each call's writes before its
  // reads.
  for (int round = 0; round < 200; ++round) {
    std::vector<std::atomic<int>> hits(17);
    const bool throwing = round % 2 == 0;
    try {
      parallel_for(8, hits.size(), [&](std::size_t i) {
        hits[i].fetch_add(1);
        if (throwing && i % 7 == 3) throw std::runtime_error("x");
      });
      EXPECT_FALSE(throwing);
    } catch (const std::runtime_error&) {
      EXPECT_TRUE(throwing);
    }
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(SweepRunner, IsolatedSweepRecordsFailureAndCompletes) {
  std::vector<SweepTask> tasks = demo_tasks();
  tasks[1].make_design = []() -> Netlist { throw SimError("deliberate sabotage"); };
  const SweepOutcome out = SweepRunner(4).run(tasks);
  EXPECT_FALSE(out.ok());
  ASSERT_EQ(out.failures.size(), 1u);
  const SweepTaskFailure& f = out.failures[0];
  EXPECT_EQ(f.task_index, 1u);
  EXPECT_EQ(f.design, "design2");
  EXPECT_EQ(f.seed, 2u);
  EXPECT_EQ(f.code, "sim.misuse");
  EXPECT_NE(f.message.find("deliberate sabotage"), std::string::npos);
  // The healthy tasks still produced full results.
  EXPECT_FALSE(out.failed(0));
  EXPECT_FALSE(out.failed(2));
  EXPECT_GT(out.results[0].toggles, 0u);
  EXPECT_GT(out.results[2].toggles, 0u);
  // And they match a clean failure-free run bit for bit.
  const std::vector<SweepResult> clean = SweepRunner(1).run(demo_tasks()).results;
  EXPECT_EQ(out.results[0].toggles, clean[0].toggles);
  EXPECT_EQ(out.results[2].toggles, clean[2].toggles);
  EXPECT_EQ(out.results[0].power_mw, clean[0].power_mw);
}

TEST(SweepRunner, IsolatedReportIdenticalAcrossThreadCounts) {
  // The acceptance contract: a sweep with an injected failing task
  // still emits a complete report with the opiso.task_failures/v1
  // section, bitwise identical for any thread count.
  const auto sabotaged = [] {
    std::vector<SweepTask> tasks = demo_tasks();
    tasks[1].make_design = []() -> Netlist {
      throw ParseError(ErrCode::ParseSyntax, "injected failure");
    };
    return tasks;
  };
  std::ostringstream one, eight;
  build_sweep_report(SweepRunner(1).run(sabotaged())).write(one, 1);
  build_sweep_report(SweepRunner(8).run(sabotaged())).write(eight, 1);
  EXPECT_EQ(one.str(), eight.str());
  const obs::JsonValue doc = obs::JsonValue::parse(one.str());
  EXPECT_EQ(doc.at("task_failures").at("schema").as_string(), "opiso.task_failures/v1");
  ASSERT_EQ(doc.at("task_failures").at("failures").size(), 1u);
  const obs::JsonValue& entry = doc.at("task_failures").at("failures").at(0);
  EXPECT_EQ(entry.at("task_index").as_number(), 1.0);
  EXPECT_EQ(entry.at("code").as_string(), "parse.syntax");
  EXPECT_EQ(entry.at("design").as_string(), "design2");
  // The failed slot is excluded from tasks/totals.
  EXPECT_EQ(doc.at("tasks").size(), 2u);
  EXPECT_EQ(doc.at("totals").at("tasks").as_number(), 2.0);
  EXPECT_EQ(doc.at("totals").at("failed_tasks").as_number(), 1.0);
}

TEST(SweepRunner, CleanReportCarriesEmptyFailureSection) {
  // Always present, so report consumers can key on the section without
  // probing and clean/failed reports share one shape.
  const obs::JsonValue doc = build_sweep_report(SweepRunner(2).run(demo_tasks()));
  EXPECT_EQ(doc.at("task_failures").at("schema").as_string(), "opiso.task_failures/v1");
  EXPECT_EQ(doc.at("task_failures").at("failures").size(), 0u);
  EXPECT_EQ(doc.at("totals").at("failed_tasks").as_number(), 0.0);
}

TEST(SweepBudgetTest, StimulusBudgetFailsUpFrontAndDeterministically) {
  std::vector<SweepTask> tasks = demo_tasks();  // 64 cycles x 64 lanes each
  SweepRunOptions options;
  options.budget.task_max_lane_cycles = 64 * 64 - 1;
  const SweepOutcome out = SweepRunner(3).run(tasks, options);
  ASSERT_EQ(out.failures.size(), tasks.size());
  for (const SweepTaskFailure& f : out.failures) {
    EXPECT_EQ(f.code, "resource.stimulus");
    EXPECT_EQ(f.elapsed_lane_cycles, 0u) << "must fail before simulating";
  }
  // One lane-cycle more of budget and everything passes.
  options.budget.task_max_lane_cycles = 64 * 64;
  EXPECT_TRUE(SweepRunner(3).run(tasks, options).ok());
}

TEST(SweepBudgetTest, OverflowProofStimulusCheck) {
  // The largest request: per-lane cycles times lanes must not overflow
  // the comparison.
  SweepTask t = plain_task("fig1", [] { return make_fig1(); }, 1, 64, 1);
  t.options.sim_cycles = ~std::uint64_t{0};
  SweepBudget budget;
  budget.task_max_lane_cycles = 1000;
  try {
    (void)run_sweep_task(t, budget);
    FAIL() << "expected a stimulus-budget error";
  } catch (const ResourceError& e) {
    EXPECT_EQ(e.code(), ErrCode::ResourceStimulus);
  }
}

TEST(SweepBudgetTest, StimulusBudgetCountsTheWarmup) {
  // 64 lanes x (2 warmup + 64 measured) cycles: the measured cycles
  // alone fit a budget the warmup then exceeds.
  SweepTask t = plain_task("design2", [] { return make_design2(); }, 1, 64, 64, 2);
  SweepBudget budget;
  budget.task_max_lane_cycles = 64 * 66 - 1;
  EXPECT_THROW((void)run_sweep_task(t, budget), ResourceError);
  budget.task_max_lane_cycles = 64 * 66;
  EXPECT_EQ(run_sweep_task(t, budget).lane_cycles, 64u * 64u);
  // The largest warmup wraps neither its rounding nor the sum.
  for (const unsigned lanes : {1u, 64u}) {
    t.options.sim_lanes = lanes;
    t.options.warmup_cycles = ~std::uint64_t{0};
    try {
      (void)run_sweep_task(t, budget);
      FAIL() << "expected a stimulus-budget error on " << lanes << " lane(s)";
    } catch (const ResourceError& e) {
      EXPECT_EQ(e.code(), ErrCode::ResourceStimulus);
    }
  }
}

TEST(SweepBudgetTest, WarmupRoundsUpPerLaneWithoutWrapping) {
  EXPECT_EQ(warmup_cycles_per_lane(0, 64), 0u);
  EXPECT_EQ(warmup_cycles_per_lane(37, 4), 10u);
  EXPECT_EQ(warmup_cycles_per_lane(40, 4), 10u);
  EXPECT_EQ(warmup_cycles_per_lane(41, 4), 11u);
  EXPECT_EQ(warmup_cycles_per_lane(~std::uint64_t{0}, 1), ~std::uint64_t{0});
  EXPECT_EQ(warmup_cycles_per_lane(~std::uint64_t{0}, 64), (~std::uint64_t{0} >> 6) + 1);
}

TEST(SweepBudgetTest, WallClockBudgetStopsRunawayTask) {
  // 2^30 cycles per lane would take minutes unbudgeted.
  const SweepTask t = plain_task("design2", [] { return make_design2(); }, 1, 64, 1u << 30);
  SweepBudget budget;
  budget.task_wall_clock_sec = 0.05;
  try {
    (void)run_sweep_task(t, budget);
    FAIL() << "expected a wall-clock error";
  } catch (const ResourceError& e) {
    EXPECT_EQ(e.code(), ErrCode::ResourceWallClock);
  }
  // Under fault isolation the same budget produces a recorded failure
  // with deterministic identity fields (elapsed varies with load).
  SweepRunOptions options;
  options.budget = budget;
  const SweepOutcome out = SweepRunner(2).run({t}, options);
  ASSERT_EQ(out.failures.size(), 1u);
  EXPECT_EQ(out.failures[0].code, "resource.wall-clock");
  EXPECT_EQ(out.failures[0].design, "design2");
}

TEST(SweepBudgetTest, WallClockBudgetStopsRunawayWarmup) {
  // 2^30 warmup cycles per lane would take minutes; the budget is
  // polled during the warmup too, before any measured cycle.
  const SweepTask t =
      plain_task("design2", [] { return make_design2(); }, 1, 64, 64, std::uint64_t{1} << 30);
  SweepRunOptions options;
  options.budget.task_wall_clock_sec = 0.05;
  const SweepOutcome out = SweepRunner(1).run({t}, options);
  ASSERT_EQ(out.failures.size(), 1u);
  EXPECT_EQ(out.failures[0].code, "resource.wall-clock");
  EXPECT_EQ(out.failures[0].elapsed_lane_cycles, 0u) << "no measured cycle ran";
}

TEST(SweepBudgetTest, WallClockBudgetStopsRunawayIsolateRounds) {
  // Every measurement round of Algorithm 1 polls the budget: a huge
  // warmup, and a huge measured run, stop before the first round ends.
  for (const bool huge_warmup : {true, false}) {
    SweepTask t = plain_task("design2", [] { return make_design2(); }, 1, 64,
                             huge_warmup ? 64 : std::uint64_t{1} << 30,
                             huge_warmup ? std::uint64_t{1} << 30 : 0);
    t.isolate = true;
    SweepRunOptions options;
    options.budget.task_wall_clock_sec = 0.05;
    const SweepOutcome out = SweepRunner(1).run({t}, options);
    ASSERT_EQ(out.failures.size(), 1u) << "huge_warmup=" << huge_warmup;
    EXPECT_EQ(out.failures[0].code, "resource.wall-clock");
    EXPECT_EQ(out.failures[0].elapsed_lane_cycles, 0u) << "no round completed";
  }
}

TEST(SweepBudgetTest, UntrippedWallClockBudgetChangesNoResult) {
  // Rounds longer than ParallelSimulator::kPollCycles run in polled
  // pieces under a budget, and in one piece without.
  std::vector<SweepTask> tasks = {
      plain_task("design2", [] { return make_design2(); }, 5, 16, 2100, 1100),
      plain_task("design1", [] { return make_design1(); }, 4, 8, 1500, 1100)};
  tasks.back().isolate = true;
  SweepRunOptions budgeted;
  budgeted.budget.task_wall_clock_sec = 1000.0;
  std::ostringstream a, b;
  build_sweep_report(SweepRunner(2).run(tasks)).write(a, 1);
  build_sweep_report(SweepRunner(2).run(tasks, budgeted)).write(b, 1);
  EXPECT_EQ(a.str(), b.str());
}

TEST(SweepRunner, FailFastSkipsRemainingTasks) {
  // Single-threaded so the schedule is sequential and the skip set is
  // predictable: task 0 fails, tasks 1 and 2 must be skipped.
  std::vector<SweepTask> tasks = demo_tasks();
  tasks[0].make_design = []() -> Netlist { throw SimError("first fails"); };
  SweepRunOptions options;
  options.fail_fast = true;
  const SweepOutcome out = SweepRunner(1).run(tasks, options);
  ASSERT_EQ(out.failures.size(), 3u);
  EXPECT_EQ(out.failures[0].code, "sim.misuse");
  EXPECT_EQ(out.failures[1].code, "task.skipped");
  EXPECT_EQ(out.failures[2].code, "task.skipped");
  // Without fail-fast the healthy tasks complete.
  const SweepOutcome patient = SweepRunner(1).run(tasks);
  EXPECT_EQ(patient.failures.size(), 1u);
}

}  // namespace
}  // namespace opiso
