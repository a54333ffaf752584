#pragma once
// Machine-readable run report for an Algorithm-1 isolation run.
//
// One JSON document per run: the options used, the before/after summary
// (power/area/slack), the per-iteration candidate decision tables (the
// raw material behind Table 1/2 reproductions — cell, style, ΔP terms,
// cost h, slack estimate, and the accept/reject decision with its
// reason), the isolation records of the transformed netlist, and a
// snapshot of the global metrics registry (BDD/simulator/STA counters).
//
// Schema (stable keys, additive evolution):
//   {
//     "schema": "opiso.run_report/v1",
//     "design": "...",
//     "options": {"style": "and", "sim_cycles": ..., ...},
//     "summary": {"power_before_mw": ..., "power_after_mw": ...,
//                 "power_reduction_pct": ..., "area_*", "slack_*",
//                 "modules_isolated": N},
//     "iterations": [{"iteration": 0, "total_power_mw": ...,
//                     "pool_size": ..., "num_isolated": ...,
//                     "candidates": [{"cell": "...", "block": 0,
//                       "style": "and", "pr_redundant": ...,
//                       "primary_mw": ..., "secondary_mw": ...,
//                       "overhead_mw": ..., "r_power": ..., "r_area": ...,
//                       "h": ..., "slack_before_ns": ...,
//                       "est_slack_after_ns": ...,
//                       "decision": "isolated|rejected|slack-veto|illegal",
//                       "activation": "..."}]}],
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
//     "power_attribution": { ...opiso.power_attribution/v1 ledger:
//                            per-candidate Eq. 1-5 terms whose sums
//                            equal the candidates[] totals... },
//     "profile": { ...opiso.profile/v1 span tree (only when the
//                  tracer is enabled and recorded events)... },
//     "metrics": { ...MetricsRegistry snapshot... }
//   }
//
// This is the artifact --metrics writes for `opiso isolate`; diffing two
// reports shows exactly where two runs diverged.

#include "isolation/algorithm.hpp"
#include "obs/json.hpp"

namespace opiso::obs {

/// Decision string for one candidate evaluation row.
[[nodiscard]] const char* candidate_decision(const CandidateEvaluation& ev);

/// Build the full report document (includes a metrics snapshot taken
/// at call time).
[[nodiscard]] JsonValue build_run_report(const IsolationResult& result,
                                         const IsolationOptions& options);

}  // namespace opiso::obs
