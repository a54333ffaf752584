// Validates the Sec.-4 estimation model the way the paper justifies it
// ("This has proven to be a good approximation"): for every candidate of
// both designs, compare the model's predicted net savings (primary +
// secondary − overhead) against the measured power delta from actually
// isolating that single candidate.

#include <cmath>
#include <cstdio>

#include "designs/designs.hpp"
#include "isolation/algorithm.hpp"
#include "netlist/traversal.hpp"
#include "power/estimator.hpp"
#include "sim/parallel_sim.hpp"

namespace {

using namespace opiso;

void evaluate_design(const char* title, const Netlist& design, const StimulusFactory& stimuli,
                     std::uint64_t cycles) {
  std::printf("%s\n", title);
  std::printf("  %-10s %12s %12s %9s\n", "candidate", "predicted", "measured", "ratio");

  // Shared measurement of the unmodified design.
  ExprPool pool;
  NetVarMap vars;
  Netlist base = design;
  const ActivationAnalysis aa = derive_activation(base, pool, vars);
  const std::vector<IsolationCandidate> cands =
      identify_candidates(base, combinational_blocks(base), aa, pool, CandidateConfig{});
  MacroPowerModel power;
  SavingsEstimator est(base, pool, vars, cands, power);
  ParallelSimulator sim(base, 1, &pool, &vars);
  est.register_probes(sim);
  sim.set_stimulus([&](unsigned) { return stimuli(); });
  sim.run(cycles);
  const PowerEstimator pe(power);
  const double before = pe.estimate(base, sim.stats()).total_mw;

  double sum_abs_err = 0.0;
  int n = 0;
  for (std::size_t i = 0; i < cands.size(); ++i) {
    if (!isolation_is_legal(base, pool, vars, cands[i].cell, cands[i].activation)) continue;
    const double predicted = est.primary_savings_mw(i, sim.stats(), PrimaryModel::Refined) +
                             est.secondary_savings_mw(i, sim.stats()) -
                             est.overhead_mw(i, sim.stats(), IsolationStyle::And);

    // Isolate only this candidate on a fresh copy and re-measure.
    Netlist variant = design;
    ExprPool pool2;
    NetVarMap vars2;
    const ActivationAnalysis aa2 = derive_activation(variant, pool2, vars2);
    const CellId cell = cands[i].cell;  // ids are stable across the copy
    (void)isolate_module(variant, pool2, vars2, cell, aa2.activation_of(variant, cell),
                         IsolationStyle::And);
    ParallelSimulator sim2(variant, 1);
    sim2.set_stimulus([&](unsigned) { return stimuli(); });
    sim2.run(cycles);
    const double after = pe.estimate(variant, sim2.stats()).total_mw;
    const double measured = before - after;

    const double ratio = std::abs(measured) > 1e-9 ? predicted / measured : 0.0;
    std::printf("  %-10s %9.4f mW %9.4f mW %9.2f\n",
                base.cell(cell).name.c_str(), predicted, measured, ratio);
    sum_abs_err += std::abs(predicted - measured);
    ++n;
  }
  if (n > 0) std::printf("  mean |error| = %.4f mW over %d candidates\n\n", sum_abs_err / n, n);
}

}  // namespace

int main() {
  const StimulusFactory stim1 = [] {
    auto comp = std::make_unique<CompositeStimulus>(std::make_unique<UniformStimulus>(5001));
    comp->route("act", std::make_unique<ControlledBitStimulus>(0.25, 0.2, 5002));
    comp->route("g1", std::make_unique<ControlledBitStimulus>(0.5, 0.3, 5003));
    comp->route("g2", std::make_unique<ControlledBitStimulus>(0.5, 0.3, 5004));
    return comp;
  };
  const StimulusFactory stim2 = [] {
    return std::make_unique<UniformStimulus>(5005);
  };

  std::printf("Model accuracy — predicted (Sec. 4) vs measured per-candidate savings\n\n");
  evaluate_design("design1:", make_design1(8), stim1, 16384);
  evaluate_design("design2:", make_design2(8, 2), stim2, 16384);
  std::printf("Paper claim: the estimate is 'a good approximation' — ratios near 1.\n");
  return 0;
}
