#include "power/bit_model.hpp"

namespace opiso {

namespace {
bool is_positional(CellKind kind) {
  switch (kind) {
    case CellKind::Add:
    case CellKind::Sub:
    case CellKind::Mul:
    case CellKind::Eq:
    case CellKind::Lt:
      return true;
    default:
      return false;
  }
}
}  // namespace

double BitLevelMacroModel::bit_energy_pj(CellKind kind, unsigned width, int port, unsigned bit,
                                         unsigned port_width) const {
  MacroPowerModel word;
  const double base = word.energy_per_toggle_pj(kind, width, port);
  if (!is_positional(kind) || port_width == 0) return base;
  // A toggle at bit i re-evaluates the carry/column tail from i up to
  // the module's output width W; normalize so the mean over the port's
  // bits equals the word-level per-toggle energy.
  const double w = static_cast<double>(width);
  const double tail = w - static_cast<double>(std::min(bit, width - 1));
  const double mean_tail = w - (static_cast<double>(port_width) - 1.0) / 2.0;
  return base * tail / std::max(mean_tail, 1.0);
}

double BitLevelMacroModel::module_power_mw(
    CellKind kind, unsigned width,
    const std::vector<std::vector<double>>& per_bit_rates) const {
  MacroPowerModel word;  // shared static/idle term
  double energy_pj = word.static_energy_pj(kind, width);
  for (std::size_t port = 0; port < per_bit_rates.size(); ++port) {
    const auto& bits = per_bit_rates[port];
    for (std::size_t bit = 0; bit < bits.size(); ++bit) {
      energy_pj += bit_energy_pj(kind, width, static_cast<int>(port),
                                 static_cast<unsigned>(bit),
                                 static_cast<unsigned>(bits.size())) *
                   bits[bit];
    }
  }
  return energy_pj * clock_freq_mhz * 1e-3;
}

double BitLevelPowerEstimator::cell_power_mw(const Netlist& nl, const BitToggleRate& rate,
                                             CellId cell) const {
  const Cell& c = nl.cell(cell);
  std::vector<std::vector<double>> rates;
  rates.reserve(c.ins.size());
  for (NetId in : c.ins) {
    std::vector<double> bits;
    const unsigned w = nl.net(in).width;
    bits.reserve(w);
    for (unsigned b = 0; b < w; ++b) bits.push_back(rate(in, b));
    rates.push_back(std::move(bits));
  }
  return model_.module_power_mw(c.kind, c.width, rates);
}

double BitLevelPowerEstimator::total_power_mw(const Netlist& nl,
                                              const BitToggleRate& rate) const {
  double total = 0.0;
  for (CellId id : nl.cell_ids()) total += cell_power_mw(nl, rate, id);
  return total;
}

}  // namespace opiso
