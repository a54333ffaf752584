#include "lower/gate_power.hpp"

#include "sim/parallel_sim.hpp"

namespace opiso {

GateRefPower measure_gate_level_power(const Netlist& word_design, Stimulus& stim,
                                      std::uint64_t cycles, const MacroPowerModel& model) {
  const GateLevelResult g = lower_to_gates(word_design);
  ParallelSimulator sim(g.netlist, 1);
  sim.set_stimulus(
      [&](unsigned) { return std::make_unique<BitStimulusAdapter>(word_design, stim); });
  sim.run(cycles);

  GateRefPower ref;
  ref.gate_cells = g.netlist.num_cells();
  for (std::uint64_t t : sim.stats().toggles) ref.gate_toggles += t;
  ref.total_mw = PowerEstimator(model).estimate(g.netlist, sim.stats()).total_mw;
  return ref;
}

}  // namespace opiso
