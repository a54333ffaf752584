#pragma once
// Waveform-level emitters over a PowerTrace: the opiso.power_trace/v1
// report section, the per-cell toggle/energy heatmap, and the
// original-vs-isolated waveform overlay behind `opiso wave
// --compare-isolated`.
//
// Schema opiso.power_trace/v1 (stable keys, additive evolution):
//   {
//     "schema": "opiso.power_trace/v1",
//     "design": "...",
//     "cycles": C, "lanes": L, "window": W, "decimation": K,
//     "clock_freq_mhz": f,
//     "total_energy_fj": E,          // exact integer femtojoules
//     "avg_power_mw": P,
//     "samples": {"count": N, "cycle_start": [...], "cycles": [...],
//                 "total_fj": [...], "arith_fj": [...],
//                 "steering_fj": [...], "sequential_fj": [...],
//                 "isolation_fj": [...]},
//     "cells": [{"cell": "...", "kind": "...", "width": w,
//                "candidate": bool, "total_fj": ..., "total_toggles": ...,
//                "series_fj": [...], "series_toggles": [...]}, ...]
//   }
// All *_fj arrays are exact integers; folding samples for emission
// (decimation K folds K capture samples per emitted sample) preserves
// every sum bit-for-bit, so Σ samples.total_fj == total_energy_fj and
// Σ cells[i].total_fj == total_energy_fj hold in every emitted report
// regardless of window or decimation. Per-sample series are emitted for
// the top `top_cells` cells by energy; every cell keeps its exact
// totals. avg_power_mw carries the fJ→mW double bridge (≤1e-9 relative
// of the estimator's total; see DESIGN.md).

#include <cstddef>
#include <iosfwd>
#include <span>

#include "isolation/transform.hpp"
#include "netlist/netlist.hpp"
#include "obs/json.hpp"
#include "power/power_trace.hpp"

namespace opiso::obs {

/// Build the opiso.power_trace/v1 document. `max_samples` bounds the
/// emitted time axis (capture samples are folded exactly when the trace
/// is longer); `top_cells` bounds how many cells carry per-sample
/// series (0 = totals only).
[[nodiscard]] JsonValue build_power_trace_section(const Netlist& nl, const PowerTrace& pt,
                                                  std::string_view design,
                                                  std::size_t max_samples = 512,
                                                  std::size_t top_cells = 16);

/// Per-cell toggle/energy heatmap ranked hottest-first (total energy,
/// ties by cell id), top `max_rows` rows, for stderr/terminal use.
void write_heatmap_table(std::ostream& os, const Netlist& nl, const PowerTrace& pt,
                         std::size_t max_rows = 24);

/// Overlay of an original-design trace and the isolated design's trace
/// of the same run discipline (same cycles/lanes/window — checked).
/// Emits opiso.wave_compare/v1: both waveforms (decimated in lockstep),
/// the per-sample reclaimed energy, the maximal idle intervals the
/// isolation exploited (consecutive samples with positive reclaimed
/// energy) with per-interval reclaimed femtojoules, and a per-isolated-
/// module ledger matching bank/logic overhead to the module's savings.
[[nodiscard]] JsonValue build_wave_compare(const Netlist& orig_nl, const PowerTrace& orig,
                                           const Netlist& iso_nl, const PowerTrace& iso,
                                           std::span<const IsolationRecord> records,
                                           std::string_view design,
                                           std::size_t max_samples = 512);

}  // namespace opiso::obs
