#pragma once
// Per-cycle energy waveform — the temporal counterpart of PowerEstimator.
//
// The macro model is affine in the toggle counts: a cell's energy over
// any set of cycles is
//
//   E = E_static * lane_cycles + Σ_ports E_port * toggles_port
//
// with coefficients that are exact multiples of 1 fJ (macro_model.cpp
// defines them as millesimal pJ values scaled by integer widths). This
// module evaluates that identity per trace sample in *integer
// femtojoules*, which buys an exact accounting invariant:
//
//   Σ_samples cell_fj[c][s]  ==  cell_energy_fj(c, aggregate stats)
//
// bit-for-bit, for every cell and any window size — integer addition is
// associative, unlike double accumulation. A trace's per-net column sums
// are the traced run's ActivityStats::toggles exactly, so PowerEstimator
// prices the traced cycles from that ActivityStats. Only
// avg_power_mw(), which converts the integer integral directly, may
// differ from the estimator total in the last bits of a double
// (documented tolerance: < 1e-9 relative; see DESIGN.md).

#include <cstdint>
#include <vector>

#include "power/estimator.hpp"
#include "sim/cycle_trace.hpp"

namespace opiso {

/// Exact integer-femtojoule view of a macro-model coefficient.
/// energy_per_toggle_pj / static_energy_pj are defined on a 0.001 pJ
/// grid, so round-to-nearest recovers the intended integer exactly.
[[nodiscard]] std::int64_t energy_per_toggle_fj(const MacroPowerModel& model, CellKind kind,
                                                unsigned width, int port);
[[nodiscard]] std::int64_t static_energy_fj(const MacroPowerModel& model, CellKind kind,
                                            unsigned width);

/// Per-sample, per-cell energy waveform of a traced run. Sample s of a
/// window-W trace covers lane_cycles(s) = sample_cycles(s) * lanes
/// lane-cycles; all energies are integer femtojoules.
struct PowerTrace {
  std::uint64_t cycles = 0;  ///< macro-cycles traced
  unsigned lanes = 1;
  std::uint64_t window = 1;
  double clock_freq_mhz = 100.0;

  std::vector<std::uint64_t> sample_cycles;  ///< macro-cycles per sample
  std::vector<std::uint64_t> total_fj;       ///< per sample, all cells
  std::vector<std::uint64_t> arith_fj;       ///< per sample, by category
  std::vector<std::uint64_t> steering_fj;
  std::vector<std::uint64_t> sequential_fj;
  std::vector<std::uint64_t> isolation_fj;

  std::vector<std::vector<std::uint64_t>> cell_fj;       ///< [cell][sample]
  std::vector<std::vector<std::uint64_t>> cell_toggles;  ///< [cell][sample] input toggles
  std::vector<std::uint64_t> cell_total_fj;              ///< [cell]
  std::vector<std::uint64_t> cell_total_toggles;         ///< [cell]
  std::uint64_t total_energy_fj = 0;

  [[nodiscard]] std::size_t num_samples() const { return total_fj.size(); }
  [[nodiscard]] std::uint64_t lane_cycles() const { return cycles * lanes; }

  /// Average power of the whole trace, from the integer integral:
  /// P[mW] = E[fJ] / lane_cycles / 1000 * f[MHz] * 1e-3.
  [[nodiscard]] double avg_power_mw() const;
};

/// Evaluate the macro model over every trace sample. The trace must
/// cover the same netlist (net count is checked).
[[nodiscard]] PowerTrace compute_power_trace(const Netlist& nl, const CycleTrace& trace,
                                             const MacroPowerModel& model = {});

/// The aggregate side of the accounting identity: the cell's whole-run
/// energy in integer fJ from aggregate statistics. compute_power_trace's
/// per-cell sample sums equal this exactly.
[[nodiscard]] std::uint64_t cell_energy_fj(const Netlist& nl, const ActivityStats& stats,
                                           CellId cell, const MacroPowerModel& model = {});

}  // namespace opiso
