#include "baseline/guarded_eval.hpp"

#include "boolfn/bdd.hpp"
#include "power/estimator.hpp"
#include "sim/parallel_sim.hpp"

namespace opiso {

GuardedEvalResult run_guarded_evaluation(const Netlist& design, const StimulusFactory& stimuli,
                                         const GuardedEvalOptions& opt) {
  OPISO_REQUIRE(stimuli != nullptr, "run_guarded_evaluation: stimulus factory required");
  GuardedEvalResult result;
  result.netlist = design;
  Netlist& nl = result.netlist;

  // Power before.
  {
    ParallelSimulator sim(nl, 1);
    sim.set_stimulus([&stimuli](unsigned) { return stimuli(); });
    sim.run(opt.sim_cycles);
    result.power_before_mw = PowerEstimator(opt.power).estimate(nl, sim.stats()).total_mw;
  }

  ExprPool pool;
  NetVarMap vars;
  const ActivationAnalysis analysis = derive_activation(nl, pool, vars);
  const std::vector<CombBlock> blocks = combinational_blocks(nl);
  const std::vector<IsolationCandidate> cands =
      identify_candidates(nl, blocks, analysis, pool, opt.candidates);

  BddManager mgr;
  for (const IsolationCandidate& cand : cands) {
    if (cand.already_isolated) continue;
    ++result.num_candidates;
    const BddRef f = mgr.from_expr(pool, cand.activation);

    // Find the tightest existing signal implied by f (fewest extra
    // 1-cycles under a uniform prior), excluding signals in the
    // candidate's own fanout (combinational-cycle legality).
    NetId best_guard;
    double best_pr = 2.0;
    for (BoolVar v = 0; v < vars.num_vars(); ++v) {
      const NetId g_net = vars.net_of(v);
      if (net_in_combinational_fanout(nl, cand.cell, g_net)) continue;
      if (!mgr.implies(f, mgr.var(v))) continue;
      const double pr = mgr.probability(mgr.var(v), [](BoolVar) { return 0.5; });
      if (pr < best_pr) {
        best_pr = pr;
        best_guard = g_net;
      }
    }
    if (!best_guard.valid()) {
      result.unguarded.push_back(cand.cell);
      continue;
    }
    // Guard with latch banks driven by the existing signal — this is
    // the same bank transform, but the "activation function" is just
    // the found net (guarded evaluation never builds new logic).
    const ExprRef guard_expr = pool.var(vars.var_of(nl, best_guard));
    isolate_module(nl, pool, vars, cand.cell, guard_expr, IsolationStyle::Latch);
    result.guarded.push_back(cand.cell);
    ++result.num_guarded;
  }

  // Power after.
  {
    ParallelSimulator sim(nl, 1);
    sim.set_stimulus([&stimuli](unsigned) { return stimuli(); });
    sim.run(opt.sim_cycles);
    result.power_after_mw = PowerEstimator(opt.power).estimate(nl, sim.stats()).total_mw;
  }
  return result;
}

}  // namespace opiso
