#pragma once
// Automated RTL operand isolation — Sec. 5 / Algorithm 1.
//
// Flow:
//   1. Partition the RT structure into combinational blocks.
//   2. Identify isolation candidates; estimate each candidate's slack
//      after isolation and reject those violating the slack threshold.
//   3. Iterate: simulate (power + signal statistics), evaluate the cost
//      h(c) = ωp·rP(c) − ωa·rA(c) for every remaining candidate, isolate
//      the best candidate of each block if h ≥ h_min, remove it from the
//      pool, and repeat until no block isolates anything.
//
// Isolating at most one candidate per block per iteration and
// re-simulating in between is what makes the Eq.-2 toggle-rate rescaling
// valid (Sec. 4.2); it also measures, rather than models, the
// inter-candidate dependencies inside a block.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "isolation/candidates.hpp"
#include "isolation/savings.hpp"
#include "isolation/transform.hpp"
#include "obs/confidence.hpp"
#include "opt/rewrite_rules.hpp"
#include "power/area_model.hpp"
#include "power/estimator.hpp"
#include "timing/sta.hpp"

namespace opiso {

class CycleSink;
struct IterationLog;

struct IsolationOptions {
  IsolationStyle style = IsolationStyle::And;
  /// Evaluate all three bank styles per candidate and pick the one with
  /// the best cost h (extension of Sec. 5.2's global style choice).
  bool choose_style_per_candidate = false;
  /// Canonically simplify activation functions (BDD round trip) before
  /// synthesizing them — Sec. 3's "optimized version thereof".
  bool simplify_activation = true;
  /// Unique-table node budget for that BDD round trip (0 = unlimited).
  /// When an activation function blows past the budget, the canonical
  /// simplification is skipped and the structurally derived expression
  /// — logically equivalent by construction — is synthesized as-is
  /// (counted in the `isolate.bdd_budget_fallbacks` metric). This keeps
  /// pathological activation functions from OOM-ing a sweep; the default
  /// is far above anything the paper's designs need.
  std::size_t bdd_node_budget = 1u << 20;
  /// Minimize activation logic against FSM-reachability don't-cares
  /// (control-state valuations that can never occur) — the "analyzing
  /// the corresponding FSM" route Sec. 3 mentions. Costs one explicit
  /// state-space exploration per iteration; skipped automatically when
  /// the control space exceeds its budget.
  bool use_reachability_dont_cares = false;
  PrimaryModel primary_model = PrimaryModel::Refined;

  double omega_p = 1.0;  ///< weight of relative power savings
  double omega_a = 0.2;  ///< weight of relative area increase
  double h_min = 0.0;    ///< minimum cost-function value to isolate

  /// Candidates whose estimated post-isolation slack falls below this
  /// are rejected up front (Algorithm 1 lines 5–9).
  double slack_threshold_ns = 0.0;

  std::uint64_t sim_cycles = 4096;
  /// Cycles simulated (and discarded) before statistics collection, so
  /// the reset transient does not skew the measured probabilities.
  std::uint64_t warmup_cycles = 32;
  /// Per-lane stimulus streams (lane index -> fresh generator; seeds
  /// should differ per lane). When set, every measurement round runs
  /// sim_lanes of them side by side on the plane engine (sim/parallel
  /// _sim.hpp) and splits sim_cycles and warmup_cycles across the lanes,
  /// so the statistical sample size is comparable. When unset, a round
  /// runs one lane on the single-stream factory passed to the flow.
  unsigned sim_lanes = 64;
  std::function<std::unique_ptr<Stimulus>(unsigned)> lane_stimuli;
  int max_iterations = 32;
  bool verbose = false;

  /// Batch-means confidence collection (obs/confidence.hpp). When
  /// enabled, every measurement round accumulates per-net and per-probe
  /// window moments, each IterationLog carries the total-power CI
  /// half-width, each CandidateEvaluation the Pr(!f) CI half-width, and
  /// the result carries opiso.confidence/v1 + opiso.coverage/v1 report
  /// sections built from the final measurement. With
  /// min_power_ci_halfwidth_mw >= 0 an under-converged run is *flagged*
  /// (confidence_converged = false), never silently extended.
  obs::ConfidenceConfig confidence{};

  /// Run the equality-saturation datapath rewrite (opt/rewrite_rules
  /// .hpp) on the design before isolating. The rewrite shares this
  /// run's ωp/ωa weights and candidate width floor; it degrades to the
  /// unchanged input on any budget exhaustion and gates every extracted
  /// netlist behind verify::equiv, so enabling it never changes
  /// behavior — only (possibly) the structure isolation then works on.
  bool rewrite = false;
  RewriteOptions rewrite_options{};

  CandidateConfig candidates{};
  ActivationOptions activation{};  ///< e.g. register lookahead (Sec. 3)
  DelayModel delay{};
  MacroPowerModel power{};
  AreaModel area{};

  /// Observability hook: invoked after each iteration's log is complete
  /// (before the algorithm decides whether to stop). Drives `--progress`
  /// in the CLI; keep it cheap — it runs inside the optimization loop.
  std::function<void(const IterationLog&)> on_iteration;
};

/// Per-candidate evaluation snapshot from one iteration.
struct CandidateEvaluation {
  CellId cell;
  std::string cell_name;
  int block = -1;
  IsolationStyle style = IsolationStyle::And;  ///< style the costs refer to
  std::string activation_str;
  double pr_redundant = 0.0;
  /// CI half-width of pr_redundant (and of pr_active — they differ by a
  /// sign); 0 unless confidence collection was enabled.
  double pr_redundant_ci_halfwidth = 0.0;
  double primary_mw = 0.0;
  double secondary_mw = 0.0;
  double overhead_mw = 0.0;
  double r_power = 0.0;  ///< relative net power change rP
  double r_area = 0.0;   ///< relative area increase rA
  double h = 0.0;        ///< cost function value
  double slack_before_ns = 0.0;
  double est_slack_after_ns = 0.0;
  bool slack_vetoed = false;
  bool legal = true;
  bool isolated_now = false;
  /// Eq. 1–5 decomposition behind primary_mw/secondary_mw/overhead_mw:
  /// the per-kind sums of these terms reproduce the three totals
  /// exactly (they are the addends, recorded in summation order). Feeds
  /// the run report's power-attribution ledger and `opiso explain`.
  std::vector<SavingsTerm> attribution;
};

struct IterationLog {
  int iteration = 0;
  double total_power_mw = 0.0;
  /// CI half-width of total_power_mw at the configured confidence
  /// level; 0 unless confidence collection was enabled. The sequence of
  /// (total_power_mw ± this) across iterations is the ΔP convergence
  /// trace the confidence report section exposes.
  double power_mw_ci_halfwidth = 0.0;
  std::size_t pool_size = 0;  ///< candidates still eligible at iteration start
  std::vector<CandidateEvaluation> evaluations;
  std::size_t num_isolated = 0;
};

struct IsolationResult {
  Netlist netlist;  ///< transformed copy of the input design
  std::vector<IsolationRecord> records;
  std::vector<IterationLog> iterations;

  /// opiso.coverage/v1 section built from the final measurement round
  /// (candidates re-derived on the transformed design, their activation
  /// signals probed alongside the power measurement).
  obs::JsonValue coverage;
  /// opiso.confidence/v1 section from the same round; null unless
  /// options.confidence.enabled.
  obs::JsonValue confidence;
  /// opiso.rewrite/v1 section describing the pre-isolation datapath
  /// rewrite; null unless options.rewrite.
  obs::JsonValue rewrite;
  /// False iff options.confidence set a min CI half-width and the final
  /// power interval missed it. Drivers flag this (task-failure style)
  /// instead of silently extending the simulation.
  bool confidence_converged = true;

  double power_before_mw = 0.0;
  double power_after_mw = 0.0;
  double area_before_um2 = 0.0;
  double area_after_um2 = 0.0;
  double slack_before_ns = 0.0;
  double slack_after_ns = 0.0;

  [[nodiscard]] double power_reduction_pct() const {
    return power_before_mw > 0 ? 100.0 * (power_before_mw - power_after_mw) / power_before_mw
                               : 0.0;
  }
  [[nodiscard]] double area_increase_pct() const {
    return area_before_um2 > 0 ? 100.0 * (area_after_um2 - area_before_um2) / area_before_um2
                               : 0.0;
  }
  [[nodiscard]] double slack_reduction_pct() const {
    return slack_before_ns != 0.0
               ? 100.0 * (slack_before_ns - slack_after_ns) / slack_before_ns
               : 0.0;
  }
};

/// Produces a fresh, identically distributed stimulus for each
/// simulation round (each iteration re-simulates the transformed design).
using StimulusFactory = std::function<std::unique_ptr<Stimulus>()>;

/// One measurement round — the discipline every isolate-family command
/// shares: a fresh plane engine running options.sim_lanes lanes of
/// options.lane_stimuli (required), warmup_cycles discarded then
/// sim_cycles measured, both split across the lanes (warmup rounded
/// up, at least one measured macro-cycle). Batch-means moments are
/// collected when options.confidence is enabled. `register_on`
/// attaches probes (ExprRefs in `pool` over `vars`) before the run;
/// `sink`, when given, observes exactly the measured cycles.
[[nodiscard]] ActivityStats measure_activity(
    const Netlist& nl, const ExprPool* pool, const NetVarMap* vars,
    const IsolationOptions& options,
    const std::function<void(ProbeHost&)>& register_on = nullptr, CycleSink* sink = nullptr);

/// One coverage round on `nl`: the measure_activity round with one
/// activation probe per isolation candidate of `nl` (derived under
/// options.activation and options.candidates) and no other probe, plus
/// the opiso.coverage/v1 section built from it. This is
/// run_operand_isolation's final measure and `opiso coverage`.
struct CoverageRound {
  ActivityStats stats;
  obs::JsonValue coverage;  ///< opiso.coverage/v1
};
[[nodiscard]] CoverageRound measure_coverage(const Netlist& nl, const IsolationOptions& options);

/// Run the full Algorithm-1 flow on a copy of `design`. Without
/// options.lane_stimuli every round runs one lane on a stream from
/// `stimuli`.
[[nodiscard]] IsolationResult run_operand_isolation(const Netlist& design,
                                                    const StimulusFactory& stimuli,
                                                    const IsolationOptions& options = {});

/// Cheap pre-commit estimate of the candidate's slack after isolation:
/// bank delay on the data paths plus the activation-logic path merging
/// in at the bank (Sec. 5.1's three timing effects).
[[nodiscard]] double estimate_slack_after_isolation(const Netlist& nl, const DelayModel& dm,
                                                    const TimingReport& timing,
                                                    const ExprPool& pool, const NetVarMap& vars,
                                                    CellId cell, ExprRef activation,
                                                    IsolationStyle style);

}  // namespace opiso
