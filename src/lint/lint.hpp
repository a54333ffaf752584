#pragma once
// Pass-based static analysis of word-level netlists (`opiso lint`).
//
// Each pass inspects one well-formedness or isolation-correctness
// property and reports structured findings: a stable `lint.*` error
// code from the shared taxonomy (util/error.hpp), a severity, the
// net/cell names involved, and — when the design came from a textual
// source and a SourceMap is supplied — the 1-based input line.
//
// Built-in passes (registration order):
//   comb_loop            combinational cycles (iterative Tarjan SCC)
//   width                width mismatches / silent truncation
//   drivers              undriven, multiply-driven and dangling nets
//   dead_logic           logic no register or primary output observes
//                        (structural reachability + Sec.-3 observability)
//   isolation_soundness  per inserted bank, a BDD proof that AS = 0
//                        implies the guarded module's output is
//                        unobserved this cycle (budget-guarded; blown
//                        budgets degrade to "unproven" warnings)
//   isolation_overhead   AS gating depth cross-checked against STA slack
//
// LintContext shares the lazily computed artifacts (SCCs, topological
// order, observability functions, timing report) between passes so a
// full lint of a design stays well under a second.

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "boolfn/bdd.hpp"
#include "boolfn/expr.hpp"
#include "isolation/activation.hpp"
#include "netlist/netlist.hpp"
#include "netlist/source_map.hpp"
#include "netlist/traversal.hpp"
#include "obs/json.hpp"
#include "sim/activity.hpp"
#include "timing/delay_model.hpp"
#include "timing/sta.hpp"
#include "util/error.hpp"

namespace opiso::lint {

/// One structured finding. `code` is the stable wire name
/// (error_code_name), the same code a sweep pre-flight rejection or a
/// parse-time rejection of the defect would carry.
struct Finding {
  ErrCode code = ErrCode::Internal;
  Severity severity = Severity::Warning;
  std::string pass;                 ///< pass that produced the finding
  std::string message;              ///< human-readable, one line
  std::vector<std::string> cells;   ///< cells involved (may be empty)
  std::vector<std::string> nets;    ///< nets involved (may be empty)
  int source_line = 0;              ///< 1-based input line (0 = unknown)
};

/// Analysis knobs.
struct LintOptions {
  /// Budget for the isolation-soundness proofs (and the BDD refinement
  /// of dead-logic findings). Exceeding it degrades the affected check
  /// to a `lint.isolation_unproven` warning instead of failing the run.
  BddBudget bdd{1u << 20, 0};

  /// Delay model for the isolation-overhead pass.
  DelayModel delay;

  /// Slack below which an isolation bank's output is flagged by the
  /// overhead pass (ns). 0 flags only nets that actually violate timing.
  double overhead_slack_threshold_ns = 0.0;

  /// Run only the named passes (empty = all registered passes).
  std::vector<std::string> only_passes;
};

/// Per-pass outcome recorded in the report.
struct PassResult {
  std::string pass;
  std::size_t num_findings = 0;
  bool skipped = false;
  std::string note;  ///< skip reason or degradation note ("" = none)
};

struct LintReport {
  std::string design;
  std::vector<Finding> findings;
  std::vector<PassResult> passes;

  /// Number of findings at or above `at_least`.
  [[nodiscard]] std::size_t count(Severity at_least) const;
  /// True when at least one finding is at or above `fail_on` — the
  /// CLI's exit-1 condition.
  [[nodiscard]] bool fails(Severity fail_on) const { return count(fail_on) > 0; }
  /// Most severe finding, if any.
  [[nodiscard]] const Finding* worst() const;
};

/// Shared per-run state handed to every pass. Heavy artifacts are
/// computed on first use and cached; passes that only need the raw
/// netlist never pay for STA or observability derivation.
class LintContext {
 public:
  LintContext(const Netlist& nl, const LintOptions& options, const SourceMap* source_map);

  [[nodiscard]] const Netlist& nl() const { return nl_; }
  [[nodiscard]] const LintOptions& options() const { return options_; }

  /// Combinational SCCs (cycles). Safe on invalid netlists.
  const std::vector<std::vector<CellId>>& comb_sccs();
  /// True when the design has no combinational cycle. Passes that walk
  /// in dependency order are skipped on cyclic designs (the comb_loop
  /// pass already reported the cycles).
  bool acyclic();

  /// Sec.-3 observability functions (requires an acyclic design).
  const ActivationAnalysis& activation();
  ExprPool& pool() { return pool_; }
  NetVarMap& vars() { return vars_; }

  /// Timing report under options().delay (requires an acyclic design).
  const TimingReport& sta();

  /// Source line of a cell/net (0 when no SourceMap or not recorded).
  [[nodiscard]] int cell_line(CellId id) const;
  [[nodiscard]] int net_line(NetId id) const;

 private:
  const Netlist& nl_;
  const LintOptions& options_;
  const SourceMap* source_map_;
  std::optional<std::vector<std::vector<CellId>>> sccs_;
  ExprPool pool_;
  NetVarMap vars_;
  std::optional<ActivationAnalysis> activation_;
  std::optional<TimingReport> sta_;
};

/// One analysis pass. Implementations must be stateless across runs
/// (builtin_passes() instantiates each pass once and reuses it).
class LintPass {
 public:
  virtual ~LintPass() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Passes that need a dependency order (observability, STA) return
  /// true and are skipped — with a note — on cyclic designs.
  [[nodiscard]] virtual bool requires_acyclic() const { return true; }
  /// Append findings; may record a degradation note for the report.
  virtual void run(LintContext& ctx, std::vector<Finding>& out, std::string& note) = 0;
};

/// The built-in passes, in the order listed above and run by run_lint.
[[nodiscard]] const std::vector<std::unique_ptr<LintPass>>& builtin_passes();

/// Run all (or options.only_passes) built-in passes over `nl`.
[[nodiscard]] LintReport run_lint(const Netlist& nl, const LintOptions& options = {},
                                  const SourceMap* source_map = nullptr);

/// Build the `opiso.lint/v1` report document.
[[nodiscard]] obs::JsonValue build_lint_report(const LintReport& report);

/// Human-readable rendering: one "<subject>:<line>: severity[code]
/// pass: message" line per finding plus a summary line.
void print_lint_text(std::ostream& os, const LintReport& report, const std::string& subject);

/// Throw the worst finding at or above `fail_on` as an Error carrying
/// its lint.* code — the sweep pre-flight hook, so rejected designs are
/// recorded in opiso.task_failures/v1 under the lint code.
void throw_on_findings(const LintReport& report, Severity fail_on, const std::string& subject);

}  // namespace opiso::lint
