#pragma once
// Whole-netlist power estimation — the DesignPower-equivalent (Sec. 6).
//
// Sums every cell's macro-model power evaluated at the toggle rates the
// simulator measured at that cell's input nets. Produces a per-cell and
// per-category breakdown so experiments can report where the savings
// came from (isolated modules vs. isolation-circuitry overhead).

#include <vector>

#include "power/area_model.hpp"
#include "power/macro_model.hpp"
#include "sim/activity.hpp"

namespace opiso {

struct PowerBreakdown {
  std::vector<double> cell_mw;       ///< per cell (indexed by CellId value)
  double total_mw = 0.0;
  double arith_mw = 0.0;             ///< arithmetic datapath modules
  double steering_mw = 0.0;          ///< muxes, gates, shifters, comparators
  double sequential_mw = 0.0;        ///< registers and plain latches
  double isolation_mw = 0.0;         ///< IsoAnd/IsoOr/IsoLatch overhead

  [[nodiscard]] double cell_power_mw(CellId id) const { return cell_mw[id.value()]; }
};

class PowerEstimator {
 public:
  explicit PowerEstimator(MacroPowerModel model = {}) : model_(model) {}

  /// Toggle rates at a cell's input nets, in port order.
  [[nodiscard]] std::vector<double> input_toggle_rates(const Netlist& nl,
                                                       const ActivityStats& stats,
                                                       CellId cell) const;

  /// Power of a single cell at the measured activity.
  [[nodiscard]] double cell_power_mw(const Netlist& nl, const ActivityStats& stats,
                                     CellId cell) const;

  [[nodiscard]] PowerBreakdown estimate(const Netlist& nl, const ActivityStats& stats) const;

  /// Exact per-net sensitivity dP_total/dTr_net in mW per (toggle/
  /// cycle): the macro model is strictly linear in every port's toggle
  /// rate, so total power is static_mw + Σ_n weight_n · Tr_n. The
  /// confidence layer turns per-net batch toggle counts into a
  /// design-power confidence interval through this vector without any
  /// re-estimation.
  [[nodiscard]] std::vector<double> net_toggle_weights(const Netlist& nl) const;

  /// The toggle-independent term static_mw of that decomposition.
  [[nodiscard]] double static_mw(const Netlist& nl) const;

  [[nodiscard]] const MacroPowerModel& model() const { return model_; }

 private:
  MacroPowerModel model_;
};

}  // namespace opiso
