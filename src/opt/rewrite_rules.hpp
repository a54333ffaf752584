#pragma once
// Equality-saturation datapath rewriting in front of operand isolation.
//
// The paper observes (Sec. 6) that the inserted activation logic "made
// additional Boolean optimizations possible"; Coward et al. (PAPERS.md)
// close the loop from the other side — many datapaths only expose good
// isolation candidates *after* algebraic rewriting. This module runs a
// bounded equality saturation over the word-level netlist (opt/egraph.hpp)
// with a fixed, width-sound rule set, then extracts the representative
// netlist that minimizes the paper's own cost ranking
//
//     h(c) = ωp·rP − ωa·rA      (Sec. 5.1)
//
// evaluated per e-node: estimated macro-model power at activity rates
// measured by a short profiling simulation — discounted by the measured
// register idle probability for isolatable arithmetic, so the extractor
// prefers forms whose expensive operators sit behind idle enables — plus
// the ωa-weighted area term. Minimizing the summed per-node cost is the
// same ordering as maximizing Σ h over the isolation candidates the
// rewritten netlist will expose.
//
// That simulation runs once, after saturation, on one plane-engine lane
// with a fixed seed: the input plus one dangling cell for each e-class
// the input has no net for. Its ActivityStats give every class's toggle
// rate, the register idle probability (Var probes on the enables) and
// the power of both the input and the rewritten netlist, whose nets
// each carry one profiled class.
//
// Safety: every rewrite rule is width-sound by construction (merges
// across widths are rejected by the e-graph), saturation is bounded by
// the PR-4 resource-budget pattern (node/iteration caps degrade to
// "input unchanged", never fail), and every extracted netlist must pass
// verify::equiv before it replaces the input — a verification failure
// or BDD-budget blow-up falls back to the original netlist and says so
// in the opiso.rewrite/v1 report section.
//
// optimize() is the same machinery as a clean-up pass: only the
// const-fold and identity rules, saturated to a fixpoint, and an
// area-only extraction. Both passes emit only the registers and latches
// the output cones read; verify::equiv accepts a dropped register that
// no output reads.

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "netlist/netlist.hpp"
#include "obs/json.hpp"

namespace opiso {

struct RewriteOptions {
  std::size_t max_nodes = 20000;     ///< e-node cap; exceeded => input unchanged
  double omega_p = 1.0;              ///< paper's ωp (power weight)
  double omega_a = 0.2;              ///< paper's ωa (area weight)
  unsigned iso_min_width = 2;        ///< isolatable-arith width floor (CandidateConfig)
  /// BDD node budget of the verify::equiv proof (0 = unlimited);
  /// isolate --rewrite copies IsolationOptions::bdd_node_budget here.
  std::size_t bdd_node_budget = 1u << 20;
  bool verify = true;                ///< gate extraction behind verify::equiv
};

struct RewriteResult {
  Netlist netlist;             ///< rewritten (and verified) netlist, or the input
  bool rewritten = false;      ///< extraction improved the cost and was emitted
  bool verified = false;       ///< verify::equiv proved the emitted netlist
  std::string fallback_reason; ///< why the input was kept (empty when rewritten)

  unsigned iterations = 0;     ///< saturation rounds actually run
  bool saturated = false;      ///< rule set reached a fixpoint within budget
  bool budget_exhausted = false;  ///< node cap hit (=> fallback)
  std::size_t egraph_classes = 0;
  std::size_t egraph_nodes = 0;
  std::map<std::string, std::uint64_t> rules_fired;  ///< per rule-name merge count

  double cost_before = 0.0;    ///< Σ node cost of the input netlist
  double cost_after = 0.0;     ///< Σ node cost of the extracted netlist
  double est_power_before_mw = 0.0;  ///< macro-model power at profiled activity
  /// Same for the emitted extraction, from the same run, whether it
  /// was then kept or not; unset when nothing was emitted.
  std::optional<double> est_power_after_mw;
  double pr_idle = 0.0;        ///< measured width-weighted register idle probability
  /// Cycles of the one-lane profiling run, its warmup included; 0 when
  /// the rewrite gave up before profiling.
  std::uint64_t profile_cycles = 0;
  std::size_t cells_before = 0;
  std::size_t cells_after = 0;
  std::size_t verify_obligations = 0;  ///< obligations verify::equiv discharged
  /// The obligation the proof was building when its BDD budget ran out.
  std::string verify_stopped_at;
};

/// Rewrite `nl` under `opt`. Never throws for resource reasons and never
/// returns an unverified netlist: every non-identity result passed
/// verify::equiv (unless opt.verify is disabled, for tests). The input
/// must validate; latch-bearing designs fall back immediately (the
/// equivalence checker has no latch semantics).
[[nodiscard]] RewriteResult rewrite_datapath(const Netlist& nl, const RewriteOptions& opt = {});

/// The opiso.rewrite/v1 run-report section: rules fired, e-graph size,
/// extraction cost deltas, verification status. Deterministic for a
/// given (netlist, options) — the profiling simulation is always one
/// plane-engine lane on a fixed seed, independent of thread count or
/// the lane count the surrounding flow measures with.
[[nodiscard]] obs::JsonValue rewrite_report_section(const RewriteResult& r);

/// The clean-up pass after isolation (the paper's Sec. 6 "additional
/// Boolean optimizations"): the same e-graph saturated with only the
/// const-fold and identity rules until a round changes nothing, then
/// extracted by cell area and emitted from the primary outputs. Hash-
/// consing shares identical cells, and a cell, register or latch that
/// no output cone reads is not emitted. Primary inputs, output order
/// and kept state names are preserved; a second pass removes nothing
/// more. The input must validate. `rules_fired`, if given, receives the per-rule
/// merge counts.
[[nodiscard]] Netlist optimize(const Netlist& nl,
                               std::map<std::string, std::uint64_t>* rules_fired = nullptr);

}  // namespace opiso
