#include "power/macro_model.hpp"

#include <array>

#include "util/error.hpp"

namespace opiso {

double MacroPowerModel::energy_per_toggle_pj(CellKind kind, unsigned width, int port) const {
  const double w = static_cast<double>(width);
  switch (kind) {
    case CellKind::PrimaryInput:
    case CellKind::PrimaryOutput:
    case CellKind::Constant:
      return 0.0;
    case CellKind::Add:
    case CellKind::Sub:
      // One input-bit toggle flips ~O(w) carry-chain nodes on average.
      return 0.10 + 0.035 * w;
    case CellKind::Mul:
      // Array multiplier: an input toggle disturbs a whole row/column.
      return 0.18 + 0.085 * w;
    case CellKind::Eq:
    case CellKind::Lt:
      return 0.06 + 0.010 * w;
    case CellKind::Shl:
    case CellKind::Shr:
      return 0.01;  // fixed shifts are wiring
    case CellKind::Not:
    case CellKind::Buf:
      return 0.015;
    case CellKind::And:
    case CellKind::Or:
    case CellKind::Nand:
    case CellKind::Nor:
      return 0.030;
    case CellKind::Xor:
    case CellKind::Xnor:
      return 0.045;
    case CellKind::Mux2:
      // Select (port 0) swings the whole word; data ports pass one bit.
      return port == 0 ? 0.030 * w : 0.035;
    case CellKind::Reg:
    case CellKind::Latch:
      // D toggles (port 0) charge the storage node; EN (port 1) gates.
      return port == 0 ? 0.060 : 0.020;
    case CellKind::IsoAnd:
    case CellKind::IsoOr:
      // AS (port 1) swings the whole isolation bank.
      return port == 1 ? 0.030 * w : 0.030;
    case CellKind::IsoLatch:
      return port == 1 ? 0.045 * w : 0.060;
  }
  return 0.0;
}

double MacroPowerModel::static_energy_pj(CellKind kind, unsigned width) const {
  const double w = static_cast<double>(width);
  switch (kind) {
    case CellKind::Reg:
      // Clock tree + internal clock buffers toggle every cycle.
      return 0.050 * w;
    case CellKind::Latch:
    case CellKind::IsoLatch:
      // A transparent latch is storage: its enable network presents a
      // clock-like per-cycle load and the cell leaks like a FF, not a
      // gate — the paper's "power overhead induced by the latches" that
      // lets gate-based isolation win (Sec. 6).
      return 0.055 * w;
    case CellKind::Mul:
      return 0.004 * w * w;
    case CellKind::Add:
    case CellKind::Sub:
      return 0.004 * w;
    case CellKind::IsoAnd:
    case CellKind::IsoOr:
      return 0.002 * w;
    default:
      return 0.001 * w;
  }
}

double MacroPowerModel::module_power_mw(CellKind kind, unsigned width,
                                        std::span<const double> input_toggle_rates) const {
  double energy_pj = static_energy_pj(kind, width);
  for (std::size_t p = 0; p < input_toggle_rates.size(); ++p) {
    OPISO_REQUIRE(input_toggle_rates[p] >= 0.0, "toggle rates must be non-negative");
    energy_pj +=
        energy_per_toggle_pj(kind, width, static_cast<int>(p)) * input_toggle_rates[p];
  }
  // P[mW] = E[pJ/cycle] * f[MHz] * 1e-3.
  return energy_pj * clock_freq_mhz * 1e-3;
}

double MacroPowerModel::module_power_mw(CellKind kind, unsigned width, double tr_a,
                                        double tr_b) const {
  const std::array<double, 2> rates{tr_a, tr_b};
  return module_power_mw(kind, width, rates);
}

}  // namespace opiso
