// DSP MAC example: the control-dominated scenario from the paper's
// introduction — a multi-lane multiply-accumulate datapath sequenced by
// an FSM so that each arithmetic module works only in a few states.
// Shows the per-iteration decision log of Algorithm 1 and the power
// breakdown by category.

#include <cstdio>

#include "designs/designs.hpp"
#include "isolation/algorithm.hpp"
#include "power/estimator.hpp"
#include "sim/parallel_sim.hpp"

int main() {
  using namespace opiso;

  const Netlist design = make_design2(8, 4);  // four MAC lanes
  std::printf("design '%s': %zu cells (%zu lanes x {mul, acc-add, sub})\n\n",
              design.name().c_str(), design.num_cells(), static_cast<std::size_t>(4));

  const StimulusFactory stimuli = [] {
    auto comp = std::make_unique<CompositeStimulus>(std::make_unique<UniformStimulus>(7));
    comp->route("start", std::make_unique<ControlledBitStimulus>(0.8, 0.25, 8));
    return comp;
  };

  IsolationOptions options;
  options.sim_cycles = 8192;
  options.omega_a = 0.02;

  const IsolationResult result = run_operand_isolation(design, stimuli, options);

  std::printf("iteration log (one candidate per combinational block per pass):\n");
  for (const IterationLog& log : result.iterations) {
    std::printf("  iter %d: total %.3f mW, %zu isolated\n", log.iteration, log.total_power_mw,
                log.num_isolated);
    for (const CandidateEvaluation& ev : log.evaluations) {
      if (!ev.isolated_now) continue;
      std::printf("    + %-10s Pr(redundant)=%.2f  primary %.4f + secondary %.4f "
                  "- overhead %.4f mW, h=%.4f\n",
                  ev.cell_name.c_str(), ev.pr_redundant, ev.primary_mw, ev.secondary_mw,
                  ev.overhead_mw, ev.h);
      std::printf("      AS = %s\n", ev.activation_str.c_str());
    }
  }

  // Power breakdown of the final design.
  ParallelSimulator sim(result.netlist, 1);
  sim.set_stimulus([&](unsigned) { return stimuli(); });
  sim.run(8192);
  const PowerBreakdown pb = PowerEstimator().estimate(result.netlist, sim.stats());
  std::printf("\nfinal power breakdown: arith %.3f, steering %.3f, sequential %.3f, "
              "isolation overhead %.3f mW\n",
              pb.arith_mw, pb.steering_mw, pb.sequential_mw, pb.isolation_mw);
  std::printf("total: %.3f mW -> %.3f mW (-%.1f%%), area +%.2f%%\n", result.power_before_mw,
              result.power_after_mw, result.power_reduction_pct(),
              result.area_increase_pct());
  return 0;
}
