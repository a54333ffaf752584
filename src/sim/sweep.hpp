#pragma once
// Multithreaded design sweep.
//
// A sweep fans independent (design × stimulus seed) tasks out to
// workers that each run starts and joins (parallel_for) and reduces the
// results in task order.
// Every task is one measurement round of the discipline the
// isolate-family commands share: a plain task is one measure_activity
// call, an isolate task one run_operand_isolation call, both on the
// task's own IsolationOptions with lane streams derived from the task
// seed (sweep_lane_seed). No task shares mutable state with another,
// and the result vector is indexed by task — so the output is bitwise
// identical for any --threads value. CI diffs the emitted reports
// across thread counts and plane widths to hold the runner to this; the
// tests compare each task against one reference run per lane, merged.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "isolation/algorithm.hpp"
#include "netlist/netlist.hpp"
#include "obs/json.hpp"
#include "sim/stimulus.hpp"

namespace opiso {

/// The uniform stream of lane `lane` of a task seeded `task_seed`: lane
/// `lane` of family `task_seed`, so the task's lanes drive the plane
/// engine's inputs one plane word at a time.
[[nodiscard]] constexpr UniformLane sweep_lane_seed(std::uint64_t task_seed, unsigned lane) {
  return {task_seed, lane};
}

struct SweepTask {
  std::string design;                    ///< label used in the report
  std::function<Netlist()> make_design;  ///< must be pure (called on a worker)
  std::uint64_t seed = 1;
  /// The task's measurement round. sim_cycles and warmup_cycles count
  /// cycles summed over sim_lanes lanes, as for isolate; the task
  /// replaces lane_stimuli with UniformStimulus(sweep_lane_seed(seed,
  /// lane)) streams, so it stays a pure function of its own fields.
  /// With confidence enabled the report row gains opiso.confidence/v1
  /// and opiso.coverage/v1 sections — bitwise identical across
  /// --threads values and plane widths, because the accumulated window
  /// moments are exact integers — and a min_power_ci_halfwidth_mw >= 0
  /// gate *fails* an under-converged task (confidence.under-converged
  /// in opiso.task_failures/v1) instead of silently extending it.
  IsolationOptions options;
  /// Run Algorithm 1 (run_operand_isolation) on the design instead of
  /// one plain measure_activity round.
  bool isolate = false;
};

struct SweepResult {
  std::string design;
  std::uint64_t seed = 0;
  unsigned lanes = 0;
  /// Total simulated lane-cycles after warmup (isolate tasks:
  /// IsolationResult::lane_cycles).
  std::uint64_t lane_cycles = 0;
  std::uint64_t toggles = 0;      ///< total bit toggles over all nets
  double power_mw = 0.0;          ///< macro-model power at the measured activity

  // -- isolate-mode extras (task.isolate set); zero otherwise ---------------
  bool isolated_mode = false;
  double power_before_mw = 0.0;
  double power_after_mw = 0.0;
  double power_reduction_pct = 0.0;
  std::uint64_t iterations = 0;         ///< Algorithm-1 iterations run
  std::uint64_t modules_isolated = 0;   ///< banks committed

  // -- confidence extras (options.confidence.enabled); null otherwise -------
  obs::JsonValue confidence;  ///< opiso.confidence/v1 section
  obs::JsonValue coverage;    ///< opiso.coverage/v1 section (always set in isolate mode)
};

/// Per-task resource budget. Zero fields are unlimited. The stimulus
/// budget is checked up front (cycles × lanes is known before the task
/// runs, so the check is deterministic); the wall-clock budget is
/// checked every ParallelSimulator::kPollCycles macro-cycles of every
/// measurement round, warmup included, so a runaway task stops promptly
/// instead of holding a worker forever. A budget that never trips
/// changes no result.
struct SweepBudget {
  double task_wall_clock_sec = 0.0;        ///< per-task wall-clock limit
  std::uint64_t task_max_lane_cycles = 0;  ///< per-task cycles × lanes limit
};

/// Execute one task synchronously (also the per-worker body). Throws
/// ResourceError (resource.stimulus / resource.wall-clock) when a limit
/// is exceeded.
[[nodiscard]] SweepResult run_sweep_task(const SweepTask& task, const SweepBudget& budget = {});

/// Record of one task that threw or blew its budget during a sweep.
/// `elapsed_lane_cycles` counts the lane-cycles completed before the
/// failure: a plain task's measured round, an isolate task's whole
/// Algorithm-1 run (IsolationResult::lane_cycles) — a deterministic
/// elapsed measure, unlike wall time, so reports with failures still
/// diff bitwise identical across --threads values.
struct SweepTaskFailure {
  std::size_t task_index = 0;
  std::string design;
  std::uint64_t seed = 0;
  std::string code;     ///< stable OpisoError code name ("resource.wall-clock", ...)
  std::string message;  ///< diagnostic text (what())
  std::uint64_t elapsed_lane_cycles = 0;
};

struct SweepRunOptions {
  /// Stop launching new tasks after the first failure; tasks that never
  /// started are recorded with code "task.skipped". The skip set depends
  /// on scheduling, so fail-fast trades report reproducibility for
  /// latency — leave it off when diffing reports across --threads.
  bool fail_fast = false;
  SweepBudget budget;
  /// Pre-flight hook run against each task's elaborated design before
  /// any simulation. Throwing an OpisoError rejects the task: it is
  /// recorded in opiso.task_failures/v1 under the error's stable code
  /// (this is how the CLI wires `opiso lint` in front of every task
  /// without the sweep layer depending on the analyzer). Must be pure —
  /// it runs on worker threads, one design at a time.
  std::function<void(const SweepTask&, const Netlist&)> preflight;
};

/// Result of a sweep: per-task results in task order (failed slots
/// carry only design/seed), plus the failure records sorted by task
/// index.
struct SweepOutcome {
  std::vector<SweepResult> results;
  std::vector<SweepTaskFailure> failures;
  [[nodiscard]] bool ok() const { return failures.empty(); }
  [[nodiscard]] bool failed(std::size_t task_index) const;
};

/// Snapshot passed to the progress callback after each task completes.
/// `task_index` is the finished task; completion order is scheduling-
/// dependent, so progress output is informational only — the result
/// vector and report stay deterministic regardless.
struct SweepProgress {
  std::size_t completed = 0;   ///< tasks finished so far (including this one)
  std::size_t total = 0;       ///< tasks in the sweep
  std::size_t task_index = 0;  ///< index of the task that just finished
  double elapsed_sec = 0.0;
  double eta_sec = 0.0;  ///< elapsed/completed * remaining
};
using SweepProgressFn = std::function<void(const SweepProgress&)>;

class SweepRunner {
 public:
  /// `threads` = 0 picks the hardware concurrency.
  explicit SweepRunner(unsigned threads = 0);

  /// Fan all tasks out to min(threads(), tasks) workers started for
  /// this call; results come back in task order.
  /// Fault-isolated: a throwing or over-budget task becomes a
  /// SweepTaskFailure record while every other task still completes
  /// (nothing propagates out of the workers). `progress`, when set, is
  /// invoked once per completed task from the finishing worker,
  /// serialized by an internal mutex (safe to write to a stream from it).
  [[nodiscard]] SweepOutcome run(const std::vector<SweepTask>& tasks,
                                 const SweepRunOptions& options = {},
                                 const SweepProgressFn& progress = nullptr);

  [[nodiscard]] unsigned threads() const { return threads_; }

 private:
  unsigned threads_;
};

/// Deterministic JSON report (schema opiso.sweep/v1). Contains no
/// wall-clock or thread-count fields so reports from different
/// --threads runs diff clean; throughput lives in the metrics registry
/// ("sweep.*", "sim.*", "pool.*") instead. Failed task slots are
/// omitted from `tasks` and recorded under `task_failures` (schema
/// opiso.task_failures/v1; an empty array on a clean run, so its
/// presence never depends on whether anything failed); totals cover
/// successes only.
[[nodiscard]] obs::JsonValue build_sweep_report(const SweepOutcome& outcome);

}  // namespace opiso
