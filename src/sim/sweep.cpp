#include "sim/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <numeric>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "power/estimator.hpp"
#include "sim/parallel_sim.hpp"
#include "util/error.hpp"
#include "util/parallel_for.hpp"

namespace opiso {

namespace {

// Enforces the wall-clock budget and keeps `elapsed` (the deterministic
// progress measure recorded in failure reports) up to date. Every
// measurement round polls the clock every ParallelSimulator::kPollCycles
// macro-cycles, warmup included; `elapsed` advances by the lane-cycles
// of a plain task's round, or of an isolate task's whole Algorithm-1
// run, once it completes.
class TaskGuard {
 public:
  TaskGuard(const SweepTask& task, const SweepBudget& budget, std::uint64_t& elapsed)
      : task_(task), budget_(budget), elapsed_(elapsed),
        start_(std::chrono::steady_clock::now()) {}

  void advance(std::uint64_t lane_cycles) {
    elapsed_ += lane_cycles;
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

  /// The rounds' poll: null without a wall-clock budget, so an unbudgeted
  /// round runs in one piece.
  [[nodiscard]] std::function<void()> poll() const {
    if (budget_.task_wall_clock_sec <= 0.0) return nullptr;
    return [this] { check_clock(); };
  }

 private:
  const SweepTask& task_;
  const SweepBudget& budget_;
  std::uint64_t& elapsed_;
  std::chrono::steady_clock::time_point start_;
};

SweepResult run_sweep_task_impl(const SweepTask& task, const SweepBudget& budget,
                                std::uint64_t& elapsed,
                                const std::function<void(const SweepTask&, const Netlist&)>&
                                    preflight = nullptr) {
  OPISO_SPAN("sweep.task");
  OPISO_REQUIRE(task.make_design != nullptr, "sweep task '" + task.design + "': no design");
  IsolationOptions opt = task.options;
  const unsigned lanes = opt.sim_lanes;
  OPISO_REQUIRE(lanes >= 1 && lanes <= ParallelSimulator::kMaxLanes,
                "sweep task '" + task.design + "': lanes must be in [1," +
                    std::to_string(ParallelSimulator::kMaxLanes) + "]");
  // The stimulus volume of a round, warmup included, is known before
  // anything runs, so this check is deterministic — the same task fails
  // the same way on every schedule. Both per-lane counts are compared
  // against what is left of the per-lane budget, so no sum can wrap.
  const std::uint64_t lane_round = std::max<std::uint64_t>(1, opt.sim_cycles / lanes);
  const std::uint64_t lane_warmup = warmup_cycles_per_lane(opt.warmup_cycles, lanes);
  const std::uint64_t lane_budget = budget.task_max_lane_cycles / lanes;
  if (budget.task_max_lane_cycles != 0 &&
      (lane_warmup > lane_budget || lane_round > lane_budget - lane_warmup)) {
    throw ResourceError(ErrCode::ResourceStimulus,
                        "sweep task '" + task.design + "': " +
                            (lane_warmup ? std::to_string(lane_warmup) + " warmup + " : "") +
                            std::to_string(lane_round) + " cycles x " + std::to_string(lanes) +
                            " lanes exceeds the stimulus budget of " +
                            std::to_string(budget.task_max_lane_cycles) + " lane-cycles");
  }
  TaskGuard guard(task, budget, elapsed);
  const Netlist nl = task.make_design();
  // Pre-flight before any simulator touches the design: a rejection
  // throws here, before lane state is allocated, so bad inputs cost
  // milliseconds and surface with the rejecting check's own error code.
  if (preflight != nullptr) preflight(task, nl);
  guard.check_clock();
  opt.lane_stimuli = [seed = task.seed](unsigned lane) {
    return std::make_unique<UniformStimulus>(sweep_lane_seed(seed, lane));
  };

  SweepResult r;
  r.design = task.design;
  r.seed = task.seed;
  r.lanes = lanes;
  if (task.isolate) {
    const IsolationResult res = run_operand_isolation(nl, nullptr, opt, guard.poll());
    guard.advance(res.lane_cycles);
    r.lane_cycles = res.lane_cycles;
    r.isolated_mode = true;
    r.power_before_mw = res.power_before_mw;
    r.power_after_mw = res.power_after_mw;
    r.power_reduction_pct = res.power_reduction_pct();
    r.iterations = res.iterations.size();
    r.modules_isolated = res.records.size();
    r.power_mw = res.power_after_mw;
    r.confidence = res.confidence;
    r.coverage = res.coverage;
  } else {
    const ActivityStats stats =
        measure_activity(nl, nullptr, nullptr, opt, nullptr, nullptr, guard.poll());
    guard.advance(stats.cycles);
    r.lane_cycles = stats.cycles;
    r.toggles = std::accumulate(stats.toggles.begin(), stats.toggles.end(), std::uint64_t{0});
    const PowerEstimator estimator(opt.power);
    r.power_mw = estimator.estimate(nl, stats).total_mw;
    if (opt.confidence.enabled) {
      r.confidence = build_confidence_section(nl, stats, opt.confidence,
                                              estimator.net_toggle_weights(nl),
                                              estimator.static_mw(nl));
      r.coverage = build_coverage_section(nl, stats, {});
    }
  }
  if (!confidence_converged(r.confidence)) {
    // A plain task's message names the interval it measured; an isolate
    // task's message leaves it to the confidence section of its report.
    const obs::JsonValue& power = r.confidence.at("power_mw");
    const std::string measured =
        task.isolate ? ""
                     : " " + std::to_string(power.at("ci_halfwidth_mw").as_number()) +
                           " mW after " + std::to_string(power.at("batches").as_uint64()) +
                           " batches";
    throw Error(ErrCode::ConfidenceUnconverged,
                "sweep task '" + task.design + "': power CI half-width" + measured +
                    " misses the requested gate of " +
                    std::to_string(opt.confidence.min_power_ci_halfwidth_mw) +
                    " mW (simulate more cycles or widen the gate)");
  }
  return r;
}

}  // namespace

SweepResult run_sweep_task(const SweepTask& task, const SweepBudget& budget) {
  std::uint64_t elapsed = 0;
  return run_sweep_task_impl(task, budget, elapsed);
}

bool SweepOutcome::failed(std::size_t task_index) const {
  for (const SweepTaskFailure& f : failures) {
    if (f.task_index == task_index) return true;
  }
  return false;
}

SweepRunner::SweepRunner(unsigned threads) : threads_(resolve_threads(threads)) {}

SweepOutcome SweepRunner::run(const std::vector<SweepTask>& tasks, const SweepRunOptions& options,
                              const SweepProgressFn& progress) {
  OPISO_SPAN("sweep.run");
  const auto wall_start = std::chrono::steady_clock::now();
  SweepOutcome out;
  out.results.resize(tasks.size());
  std::mutex mu;  // failures list + progress counter
  std::size_t completed = 0;
  std::atomic<bool> abort{false};
  parallel_for(threads_, tasks.size(), [&](std::size_t i) {
    std::uint64_t elapsed = 0;
    SweepTaskFailure failure;
    bool failed = false;
    if (options.fail_fast && abort.load(std::memory_order_acquire)) {
      failed = true;
      failure.code = error_code_name(ErrCode::TaskSkipped);
      failure.message = "skipped after an earlier failure (--fail-fast)";
    } else {
      try {
        out.results[i] =
            run_sweep_task_impl(tasks[i], options.budget, elapsed, options.preflight);
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
