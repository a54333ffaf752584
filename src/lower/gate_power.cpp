#include "lower/gate_power.hpp"

#include "sim/parallel_sim.hpp"
#include "util/error.hpp"

namespace opiso {

GateRefPower measure_gate_level_power(const Netlist& word_design, Stimulus& stim,
                                      std::uint64_t cycles, const MacroPowerModel& model) {
  GateRefPower ref;
  ref.lowered = lower_to_gates(word_design);
  const Netlist& gates = ref.lowered.netlist;
  ParallelSimulator sim(gates, 1);
  sim.set_stimulus(
      [&](unsigned) { return std::make_unique<BitStimulusAdapter>(word_design, stim); });
  sim.run(cycles);

  ref.stats = sim.stats();
  ref.total_mw = PowerEstimator(model).estimate(gates, ref.stats).total_mw;
  return ref;
}

double GateRefPower::bit_toggle_rate(NetId net, unsigned bit) const {
  const std::vector<NetId>& bits = lowered.bits_of(net);
  OPISO_REQUIRE(bit < bits.size(), "bit_toggle_rate: bit out of range");
  return stats.toggle_rate(bits[bit]);
}

}  // namespace opiso
