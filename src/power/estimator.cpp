#include "power/estimator.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace opiso {

std::vector<double> PowerEstimator::input_toggle_rates(const Netlist& nl,
                                                       const ActivityStats& stats,
                                                       CellId cell) const {
  const Cell& c = nl.cell(cell);
  std::vector<double> rates;
  rates.reserve(c.ins.size());
  for (NetId in : c.ins) rates.push_back(stats.toggle_rate(in));
  return rates;
}

double PowerEstimator::cell_power_mw(const Netlist& nl, const ActivityStats& stats,
                                     CellId cell) const {
  const Cell& c = nl.cell(cell);
  const std::vector<double> rates = input_toggle_rates(nl, stats, cell);
  return model_.module_power_mw(c.kind, c.width, rates);
}

std::vector<double> PowerEstimator::net_toggle_weights(const Netlist& nl) const {
  std::vector<double> weights(nl.num_nets(), 0.0);
  for (CellId id : nl.cell_ids()) {
    const Cell& c = nl.cell(id);
    for (std::size_t p = 0; p < c.ins.size(); ++p) {
      weights[c.ins[p].value()] +=
          model_.energy_per_toggle_pj(c.kind, c.width, static_cast<int>(p)) *
          model_.clock_freq_mhz * 1e-3;
    }
  }
  return weights;
}

double PowerEstimator::static_mw(const Netlist& nl) const {
  double mw = 0.0;
  for (CellId id : nl.cell_ids()) {
    const Cell& c = nl.cell(id);
    mw += model_.static_energy_pj(c.kind, c.width) * model_.clock_freq_mhz * 1e-3;
  }
  return mw;
}

PowerBreakdown PowerEstimator::estimate(const Netlist& nl, const ActivityStats& stats) const {
  OPISO_SPAN("power.estimate");
  obs::metrics().counter("power.estimates").add(1);
  obs::metrics().counter("power.cells_evaluated").add(nl.num_cells());
  PowerBreakdown pb;
  pb.cell_mw.assign(nl.num_cells(), 0.0);
  for (CellId id : nl.cell_ids()) {
    const Cell& c = nl.cell(id);
    const double mw = cell_power_mw(nl, stats, id);
    pb.cell_mw[id.value()] = mw;
    pb.total_mw += mw;
    if (cell_kind_is_arith(c.kind)) {
      pb.arith_mw += mw;
    } else if (cell_kind_is_isolation(c.kind)) {
      pb.isolation_mw += mw;
    } else if (c.kind == CellKind::Reg || c.kind == CellKind::Latch) {
      pb.sequential_mw += mw;
    } else {
      pb.steering_mw += mw;
    }
  }
  // Distribution across all estimates this run — sweeps over many
  // (design × seed × config) points read this to spot outlier tasks.
  obs::metrics().histogram("power.total_mw").record(pb.total_mw);
  return pb;
}

}  // namespace opiso
