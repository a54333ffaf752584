#include "sim/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>

#include "isolation/algorithm.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "power/estimator.hpp"
#include "support/error.hpp"
#include "util/thread_pool.hpp"

namespace opiso {

namespace {

std::unique_ptr<Stimulus> make_task_stimulus(const SweepTask& task, std::uint64_t lane_seed) {
  if (task.make_stimulus) return task.make_stimulus(lane_seed);
  return std::make_unique<UniformStimulus>(lane_seed);
}

// Cycles simulated between wall-clock checks: small enough that a
// runaway task stops promptly, large enough that the clock reads stay
// off the hot path.
constexpr std::uint64_t kBudgetChunkCycles = 1024;

// Enforces the wall-clock budget between simulation chunks and keeps
// `elapsed_lane_cycles` (the deterministic progress measure recorded in
// failure reports) up to date as chunks complete.
class TaskGuard {
 public:
  TaskGuard(const SweepTask& task, const SweepBudget& budget, std::uint64_t* elapsed)
      : task_(task), budget_(budget), elapsed_(elapsed),
        start_(std::chrono::steady_clock::now()) {}

  void advance(std::uint64_t lane_cycles) {
    if (elapsed_ != nullptr) *elapsed_ += lane_cycles;
    check_clock();
  }

  void check_clock() const {
    if (budget_.task_wall_clock_sec <= 0.0) return;
    const double sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
    if (sec > budget_.task_wall_clock_sec) {
      throw ResourceError(ErrCode::ResourceWallClock,
                          "sweep task '" + task_.design + "': wall-clock budget of " +
                              std::to_string(budget_.task_wall_clock_sec) + "s exceeded");
    }
  }

  /// Chunked only when a clock budget is armed; otherwise one full run
  /// (the historical single-call path, with zero extra clock reads).
  [[nodiscard]] std::uint64_t chunk(std::uint64_t remaining) const {
    if (budget_.task_wall_clock_sec <= 0.0) return remaining;
    return std::min(remaining, kBudgetChunkCycles);
  }

 private:
  const SweepTask& task_;
  const SweepBudget& budget_;
  std::uint64_t* elapsed_;
  std::chrono::steady_clock::time_point start_;
};

SweepResult run_sweep_task_impl(const SweepTask& task, const SweepBudget& budget,
                                std::uint64_t* elapsed_lane_cycles,
                                const std::function<void(const SweepTask&, const Netlist&)>&
                                    preflight = nullptr) {
  OPISO_SPAN("sweep.task");
  OPISO_REQUIRE(task.make_design != nullptr, "sweep task '" + task.design + "': no design");
  OPISO_REQUIRE(task.lanes >= 1 && task.lanes <= ParallelSimulator::kMaxLanes,
                "sweep task '" + task.design + "': lanes must be in [1," +
                    std::to_string(ParallelSimulator::kMaxLanes) + "]");
  // The stimulus volume is known before anything runs, so this check is
  // deterministic — the same task fails the same way on every schedule.
  if (budget.task_max_lane_cycles != 0 &&
      task.cycles > budget.task_max_lane_cycles / task.lanes) {
    throw ResourceError(ErrCode::ResourceStimulus,
                        "sweep task '" + task.design + "': " + std::to_string(task.cycles) +
                            " cycles x " + std::to_string(task.lanes) +
                            " lanes exceeds the stimulus budget of " +
                            std::to_string(budget.task_max_lane_cycles) + " lane-cycles");
  }
  TaskGuard guard(task, budget, elapsed_lane_cycles);
  const Netlist nl = task.make_design();
  // Pre-flight before any simulator touches the design: a rejection
  // throws here, before lane state is allocated, so bad inputs cost
  // milliseconds and surface with the rejecting check's own error code.
  if (preflight != nullptr) preflight(task, nl);
  guard.check_clock();

  if (task.isolate) {
    // Isolate mode: the task runs Algorithm 1 instead of a plain
    // measurement. The shared options are copied and the task's own
    // lanes/cycles/warmup and seed are installed, so the result is a
    // pure function of the task fields — the report stays bitwise
    // identical for any --threads value.
    IsolationOptions opt = *task.isolate;
    opt.sim_lanes = task.lanes;
    if (task.confidence.enabled) opt.confidence = task.confidence;
    opt.sim_cycles = task.cycles * task.lanes;
    opt.warmup_cycles = task.warmup * task.lanes;
    opt.lane_stimuli = [&task](unsigned lane) {
      return make_task_stimulus(task, sweep_lane_seed(task.seed, lane));
    };
    // The wall-clock budget is enforced between iterations (the loop's
    // natural chunk); elapsed progress counts one measurement round per
    // iteration, a deterministic measure like the plain path's.
    const std::function<void(const IterationLog&)> chained = opt.on_iteration;
    opt.on_iteration = [&guard, &opt, &chained](const IterationLog& log) {
      guard.advance(opt.sim_cycles);
      if (chained) chained(log);
    };
    const IsolationResult res = run_operand_isolation(nl, nullptr, opt);
    guard.advance(opt.sim_cycles);  // the final post-loop measurement
    if (opt.confidence.enabled && !res.confidence_converged) {
      throw Error(ErrCode::ConfidenceUnconverged,
                  "sweep task '" + task.design +
                      "': power CI half-width misses the requested gate of " +
                      std::to_string(opt.confidence.min_power_ci_halfwidth_mw) +
                      " mW (simulate more cycles or widen the gate)");
    }

    SweepResult r;
    r.design = task.design;
    r.seed = task.seed;
    r.lanes = task.lanes;
    r.lane_cycles = (res.iterations.size() + 1) * opt.sim_cycles;
    r.isolated_mode = true;
    r.power_before_mw = res.power_before_mw;
    r.power_after_mw = res.power_after_mw;
    r.power_reduction_pct = res.power_reduction_pct();
    r.iterations = res.iterations.size();
    r.modules_isolated = res.records.size();
    r.power_mw = res.power_after_mw;
    if (opt.confidence.enabled) r.confidence = res.confidence;
    r.coverage = res.coverage;
    return r;
  }

  ParallelSimulator sim(nl, task.lanes);
  if (task.confidence.enabled) sim.enable_batch_stats(task.confidence.batch_frames);
  sim.set_stimulus([&](unsigned lane) {
    return make_task_stimulus(task, sweep_lane_seed(task.seed, lane));
  });
  if (task.warmup > 0) {
    sim.warmup(task.warmup);
    guard.check_clock();
  }
  for (std::uint64_t done = 0; done < task.cycles;) {
    const std::uint64_t step = guard.chunk(task.cycles - done);
    sim.run(step);
    done += step;
    guard.advance(step * task.lanes);
  }
  const ActivityStats& stats = sim.stats();

  SweepResult r;
  r.design = task.design;
  r.seed = task.seed;
  r.lanes = task.lanes;
  r.lane_cycles = stats.cycles;
  r.toggles = std::accumulate(stats.toggles.begin(), stats.toggles.end(), std::uint64_t{0});
  r.power_mw = PowerEstimator().estimate(nl, stats).total_mw;
  if (task.confidence.enabled) {
    const PowerEstimator estimator;
    const std::vector<double> weights = estimator.net_toggle_weights(nl);
    r.confidence =
        build_confidence_section(nl, stats, task.confidence, weights, estimator.static_mw(nl));
    r.coverage = build_coverage_section(nl, stats, {});
    if (task.confidence.min_power_ci_halfwidth_mw >= 0.0) {
      const std::uint64_t frames = stats.net_batches.num_frames();
      const std::uint64_t lanes = frames > 0 ? stats.cycles / frames : 0;
      const obs::SeriesInterval pw =
          obs::weighted_interval(stats.net_batches, weights, lanes, task.confidence.level);
      if (pw.batches < 2 || pw.halfwidth > task.confidence.min_power_ci_halfwidth_mw) {
        throw Error(ErrCode::ConfidenceUnconverged,
                    "sweep task '" + task.design + "': power CI half-width " +
                        std::to_string(pw.halfwidth) + " mW after " +
                        std::to_string(pw.batches) + " batches misses the requested gate of " +
                        std::to_string(task.confidence.min_power_ci_halfwidth_mw) +
                        " mW (simulate more cycles or widen the gate)");
      }
    }
  }
  return r;
}

}  // namespace

SweepResult run_sweep_task(const SweepTask& task) {
  return run_sweep_task_impl(task, SweepBudget{}, nullptr);
}

SweepResult run_sweep_task(const SweepTask& task, const SweepBudget& budget) {
  return run_sweep_task_impl(task, budget, nullptr);
}

bool SweepOutcome::failed(std::size_t task_index) const {
  for (const SweepTaskFailure& f : failures) {
    if (f.task_index == task_index) return true;
  }
  return false;
}

struct SweepRunner::Impl {
  explicit Impl(unsigned threads) : pool(threads) {}
  ThreadPool pool;
};

SweepRunner::SweepRunner(unsigned threads) : impl_(std::make_shared<Impl>(threads)) {}

unsigned SweepRunner::threads() const { return impl_->pool.size(); }

std::vector<SweepResult> SweepRunner::run(const std::vector<SweepTask>& tasks,
                                          const SweepProgressFn& progress) {
  OPISO_SPAN("sweep.run");
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<SweepResult> results(tasks.size());
  std::mutex progress_mu;
  std::size_t completed = 0;
  // Ordered reduction: worker i writes slot i, nothing else. Progress
  // reporting is a side channel and never touches the results.
  impl_->pool.parallel_for(tasks.size(), [&](std::size_t i) {
    results[i] = run_sweep_task(tasks[i]);
    if (!progress) return;
    std::lock_guard<std::mutex> lock(progress_mu);
    SweepProgress p;
    p.completed = ++completed;
    p.total = tasks.size();
    p.task_index = i;
    p.elapsed_sec = std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
                        .count();
    p.eta_sec = p.elapsed_sec / static_cast<double>(p.completed) *
                static_cast<double>(p.total - p.completed);
    progress(p);
  });

  const std::uint64_t run_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           wall_start)
          .count());
  std::uint64_t lane_cycles = 0;
  for (const SweepResult& r : results) lane_cycles += r.lane_cycles;
  obs::MetricsRegistry& m = obs::metrics();
  m.counter("sweep.runs").add(1);
  m.counter("sweep.tasks").add(tasks.size());
  m.counter("sweep.lane_cycles").add(lane_cycles);
  m.counter("sweep.run_ns").add(run_ns);
  if (run_ns > 0) {
    m.gauge("sweep.lane_cycles_per_sec")
        .set(static_cast<double>(lane_cycles) * 1e9 / static_cast<double>(run_ns));
  }
  return results;
}

SweepOutcome SweepRunner::run_isolated(const std::vector<SweepTask>& tasks,
                                       const SweepRunOptions& options,
                                       const SweepProgressFn& progress) {
  OPISO_SPAN("sweep.run_isolated");
  const auto wall_start = std::chrono::steady_clock::now();
  SweepOutcome out;
  out.results.resize(tasks.size());
  std::mutex mu;  // failures list + progress counter
  std::size_t completed = 0;
  std::atomic<bool> abort{false};
  impl_->pool.parallel_for(tasks.size(), [&](std::size_t i) {
    std::uint64_t elapsed = 0;
    SweepTaskFailure failure;
    bool failed = false;
    if (options.fail_fast && abort.load(std::memory_order_acquire)) {
      failed = true;
      failure.code = error_code_name(ErrCode::TaskSkipped);
      failure.message = "skipped after an earlier failure (--fail-fast)";
    } else {
      try {
        out.results[i] = run_sweep_task_impl(tasks[i], options.budget, &elapsed,
                                             options.preflight);
      } catch (const OpisoError& e) {
        failed = true;
        failure.code = e.code_name();
        failure.message = e.what();
      } catch (const std::exception& e) {
        failed = true;
        failure.code = error_code_name(ErrCode::Internal);
        failure.message = e.what();
      } catch (...) {
        failed = true;
        failure.code = error_code_name(ErrCode::Internal);
        failure.message = "unknown exception";
      }
    }
    if (failed) {
      // The slot keeps its identity so the report's failure entry and
      // the (zeroed) result line up; it is excluded from tasks/totals.
      failure.task_index = i;
      failure.design = tasks[i].design;
      failure.seed = tasks[i].seed;
      failure.elapsed_lane_cycles = elapsed;
      out.results[i].design = tasks[i].design;
      out.results[i].seed = tasks[i].seed;
      if (options.fail_fast) abort.store(true, std::memory_order_release);
      obs::metrics().counter("sweep.task_failures").add(1);
      std::lock_guard<std::mutex> lock(mu);
      out.failures.push_back(std::move(failure));
    }
    if (!progress) return;
    std::lock_guard<std::mutex> lock(mu);
    SweepProgress p;
    p.completed = ++completed;
    p.total = tasks.size();
    p.task_index = i;
    p.elapsed_sec = std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
                        .count();
    p.eta_sec = p.elapsed_sec / static_cast<double>(p.completed) *
                static_cast<double>(p.total - p.completed);
    progress(p);
  });

  // Completion order is scheduling-dependent; the report is not.
  std::sort(out.failures.begin(), out.failures.end(),
            [](const SweepTaskFailure& a, const SweepTaskFailure& b) {
              return a.task_index < b.task_index;
            });

  const std::uint64_t run_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           wall_start)
          .count());
  std::uint64_t lane_cycles = 0;
  for (const SweepResult& r : out.results) lane_cycles += r.lane_cycles;
  obs::MetricsRegistry& m = obs::metrics();
  m.counter("sweep.runs").add(1);
  m.counter("sweep.tasks").add(tasks.size());
  m.counter("sweep.lane_cycles").add(lane_cycles);
  m.counter("sweep.run_ns").add(run_ns);
  if (run_ns > 0) {
    m.gauge("sweep.lane_cycles_per_sec")
        .set(static_cast<double>(lane_cycles) * 1e9 / static_cast<double>(run_ns));
  }
  return out;
}

obs::JsonValue build_sweep_report(const std::vector<SweepResult>& results) {
  SweepOutcome outcome;
  outcome.results = results;
  return build_sweep_report(outcome);
}

obs::JsonValue build_sweep_report(const SweepOutcome& outcome) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc["schema"] = "opiso.sweep/v1";
  obs::JsonValue tasks = obs::JsonValue::array();
  std::uint64_t lane_cycles = 0;
  std::uint64_t toggles = 0;
  std::size_t succeeded = 0;
  for (std::size_t i = 0; i < outcome.results.size(); ++i) {
    if (outcome.failed(i)) continue;  // recorded under task_failures
    const SweepResult& r = outcome.results[i];
    obs::JsonValue t = obs::JsonValue::object();
    t["design"] = r.design;
    t["seed"] = r.seed;
    t["lanes"] = static_cast<std::uint64_t>(r.lanes);
    t["lane_cycles"] = r.lane_cycles;
    t["toggles"] = r.toggles;
    t["power_mw"] = r.power_mw;
    if (r.isolated_mode) {
      // Additive isolate-mode fields; plain rows keep the v1 shape
      // unchanged so existing consumers never see them.
      t["power_before_mw"] = r.power_before_mw;
      t["power_after_mw"] = r.power_after_mw;
      t["power_reduction_pct"] = r.power_reduction_pct;
      t["iterations"] = r.iterations;
      t["modules_isolated"] = r.modules_isolated;
    }
    // Additive confidence/coverage sections (task.confidence.enabled);
    // rows without them keep the v1 shape unchanged.
    if (!r.confidence.is_null()) t["confidence"] = r.confidence;
    if (!r.coverage.is_null()) t["coverage"] = r.coverage;
    tasks.push_back(std::move(t));
    lane_cycles += r.lane_cycles;
    toggles += r.toggles;
    ++succeeded;
  }
  doc["tasks"] = std::move(tasks);
  obs::JsonValue totals = obs::JsonValue::object();
  totals["tasks"] = static_cast<std::uint64_t>(succeeded);
  totals["failed_tasks"] = static_cast<std::uint64_t>(outcome.failures.size());
  totals["lane_cycles"] = lane_cycles;
  totals["toggles"] = toggles;
  doc["totals"] = std::move(totals);
  // Always present (empty on a clean run) so consumers can key on the
  // section without probing, and clean/failed reports share a shape.
  obs::JsonValue failures = obs::JsonValue::object();
  failures["schema"] = "opiso.task_failures/v1";
  obs::JsonValue entries = obs::JsonValue::array();
  for (const SweepTaskFailure& f : outcome.failures) {
    obs::JsonValue e = obs::JsonValue::object();
    e["task_index"] = static_cast<std::uint64_t>(f.task_index);
    e["design"] = f.design;
    e["seed"] = f.seed;
    e["code"] = f.code;
    e["message"] = f.message;
    // Lane-cycles, not wall time: elapsed progress that diffs bitwise
    // identical across --threads values.
    e["elapsed_lane_cycles"] = f.elapsed_lane_cycles;
    entries.push_back(std::move(e));
  }
  failures["failures"] = std::move(entries);
  doc["task_failures"] = std::move(failures);
  return doc;
}

}  // namespace opiso
