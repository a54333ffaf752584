#pragma once
// Gate-level reference power measurement.
//
// Lowers a word-level design to gates, simulates it with the same
// stimulus, and estimates power from the actual per-gate switching —
// the "ground truth" the word-level macro models approximate. Used by
// bench_power_models to quantify the accuracy of the word-level and
// bit-level macro models under uniform vs. correlated data. The same
// run supplies the bit-level model's per-bit rates: a word net's bit b
// is one net of the lowered design.

#include "lower/gate_level.hpp"
#include "power/estimator.hpp"

namespace opiso {

struct GateRefPower {
  double total_mw = 0.0;
  GateLevelResult lowered;  ///< the simulated gate netlist and its word-to-bit map
  ActivityStats stats;      ///< the lowered design's activity

  /// Toggle rate of bit `bit` of word net `net`: the rate of its
  /// lowered bit net.
  [[nodiscard]] double bit_toggle_rate(NetId net, unsigned bit) const;
};

/// `stim` is a word-level stimulus for `word_design`; it is adapted to
/// the lowered bit inputs internally.
[[nodiscard]] GateRefPower measure_gate_level_power(const Netlist& word_design, Stimulus& stim,
                                                    std::uint64_t cycles,
                                                    const MacroPowerModel& model = {});

}  // namespace opiso
