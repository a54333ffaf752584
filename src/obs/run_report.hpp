#pragma once
// Machine-readable run report for an Algorithm-1 isolation run, and the
// two text views `opiso explain` renders from it.
//
// One JSON document per run: the options used, the before/after summary
// (power/area/slack), the per-iteration candidate decision tables (the
// raw material behind Table 1/2 reproductions — cell, style, ΔP totals
// with the Eq. 1–5 terms they sum, cost h, slack estimate, and the
// accept/reject decision), the isolation records of the transformed
// netlist, and a snapshot of the global metrics registry
// (BDD/simulator/STA counters).
//
// Schema (stable keys, additive evolution):
//   {
//     "schema": "opiso.run_report/v1",
//     "design": "...",
//     "options": {"style": "AND", "sim_cycles": ..., ...},
//     "summary": {"power_before_mw": ..., "power_after_mw": ...,
//                 "power_reduction_pct": ..., "area_*", "slack_*",
//                 "modules_isolated": N},
//     "iterations": [{"iteration": 0, "total_power_mw": ...,
//                     "pool_size": ..., "num_isolated": ...,
//                     "candidates": [{"cell": "...", "block": 0,
//                       "style": "AND", "pr_redundant": ...,
//                       "primary_mw": ..., "secondary_mw": ...,
//                       "overhead_mw": ..., "r_power": ..., "r_area": ...,
//                       "h": ..., "slack_before_ns": ...,
//                       "est_slack_after_ns": ...,
//                       "decision": "isolated|rejected|slack-veto|illegal",
//                       "activation": "...",
//                       "terms": [{"kind": "primary.pair", "mw": ...,
//                         "probability": ..., "rate_a": ..., "rate_b": ...,
//                         "source_a": "...", "rescaled_a": false, ...}]}]}],
//     "isolated_modules": [{"cell": "...", "style": "...",
//                           "as_net": "...", "isolated_bits": ...,
//                           "activation_literals": ...}],
//     "confidence": { ...opiso.confidence/v1: batch-means CIs of the
//                     final measurement — design power ± half-width,
//                     per-net toggle-rate half-widths (only when
//                     options.confidence.enabled)... },
//     "coverage": { ...opiso.coverage/v1: net toggle coverage,
//                   never-toggled nets, per-candidate activation-signal
//                   exercise counts of the final measurement... },
//     "profile": { ...opiso.profile/v1 span tree (only when the
//                  tracer is enabled and recorded events)... },
//     "metrics": { ...MetricsRegistry snapshot... }
//   }
//
// A row's `terms` are the addends SavingsEstimator summed, in summation
// order (isolation/savings.hpp, SavingsTerm): summed per kind prefix
// ("primary.", "secondary.", "overhead.") they equal the row's
// primary_mw, secondary_mw and overhead_mw exactly. Zero or empty term
// fields other than kind/mw/probability are omitted.
//
// This is the artifact --metrics writes for `opiso isolate`, streamed
// from the IsolationResult through one JsonWriter; diffing two
// reports shows exactly where two runs diverged, and `opiso explain`
// answers "why was this candidate (not) isolated?" from it alone.

#include <iosfwd>
#include <string_view>

#include "isolation/algorithm.hpp"
#include "obs/json.hpp"

namespace opiso::obs {

/// Decision string for one candidate evaluation row.
[[nodiscard]] const char* candidate_decision(const CandidateEvaluation& ev);

/// Write the full report document into `w`, members in schema order,
/// rows and terms straight from `result` (no tree is built for them).
/// The profile and metrics snapshot are taken at call time.
void write_run_report(JsonWriter& w, const IsolationResult& result,
                      const IsolationOptions& options);

/// The same document as a tree: write_run_report's text, parsed.
[[nodiscard]] JsonValue build_run_report(const IsolationResult& result,
                                         const IsolationOptions& options);

// The text views of a report document (a parsed one, or
// build_run_report's own). Both throw ParseError naming the schema or
// the member, and print nothing, when `report` is not a run report.

/// Print the per-iteration table of every candidate evaluation (cost
/// totals, h, veto flags, decisions).
void write_iteration_table(std::ostream& os, const JsonValue& report);

/// Print the Eq. 1–5 decision narrative of one candidate cell across
/// all iterations: every term with its measured probability, rates and
/// Eq. 2 rescale flags, the fanout z_j decisions, the cost and the
/// decision. Returns false (and prints the known candidate names) if the
/// cell was never evaluated.
bool write_candidate_narrative(std::ostream& os, const JsonValue& report,
                               std::string_view cell_name);

}  // namespace opiso::obs
