#pragma once
// Bit-position-aware macro power model (dual-bit-type flavored).
//
// The paper's macro models (Sec. 4.1, citing Landman [5]) map input
// toggle rates to power. The plain MacroPowerModel charges every input
// bit toggle the same effective energy; that is exact for uniform white
// noise but overestimates datapath modules fed with *correlated* data,
// where the high-order (sign/magnitude) bits rarely toggle — and a
// low-order toggle in an adder ripples through the longest carry tail.
//
// BitLevelMacroModel charges each input bit of the positional kinds
// (add/sub/mul/compare) proportionally to its downstream tail:
//
//   E(bit i) = E_word(kind) · (W − i) / mean_j(W − j)
//
// so LSB toggles (long carry tails / many partial-product columns) cost
// more than MSB toggles, while the *mean* per-toggle energy equals the
// word-level model's — under uniform per-bit activity both models agree
// exactly, and they diverge only for the non-uniform bit profiles of
// correlated data. bench_power_models validates both against gate-level
// reference measurements of the lowered netlists, which also supply the
// per-bit rates (GateRefPower::bit_toggle_rate in lower/gate_power.hpp).

#include <functional>

#include "netlist/netlist.hpp"
#include "power/macro_model.hpp"

namespace opiso {

/// Toggles per cycle of bit `bit` of a net.
using BitToggleRate = std::function<double(NetId net, unsigned bit)>;

struct BitLevelMacroModel {
  double clock_freq_mhz = 100.0;

  /// Effective energy (pJ) of one toggle at bit `bit` of input `port`
  /// (`port_width` = number of bits on that port, for normalization).
  [[nodiscard]] double bit_energy_pj(CellKind kind, unsigned width, int port, unsigned bit,
                                     unsigned port_width) const;

  /// Module power (mW) from per-bit toggle rates of each input port.
  [[nodiscard]] double module_power_mw(
      CellKind kind, unsigned width,
      const std::vector<std::vector<double>>& per_bit_rates) const;
};

/// Whole-design estimate from per-bit toggle rates.
class BitLevelPowerEstimator {
 public:
  explicit BitLevelPowerEstimator(BitLevelMacroModel model = {}) : model_(model) {}

  [[nodiscard]] double cell_power_mw(const Netlist& nl, const BitToggleRate& rate,
                                     CellId cell) const;
  [[nodiscard]] double total_power_mw(const Netlist& nl, const BitToggleRate& rate) const;

 private:
  BitLevelMacroModel model_;
};

}  // namespace opiso
