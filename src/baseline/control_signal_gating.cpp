#include "baseline/control_signal_gating.hpp"

#include <algorithm>
#include <unordered_set>

#include "netlist/traversal.hpp"
#include "power/estimator.hpp"
#include "sim/parallel_sim.hpp"

namespace opiso {

CsgResult run_control_signal_gating(const Netlist& design, const StimulusFactory& stimuli,
                                    const CsgOptions& opt) {
  OPISO_REQUIRE(stimuli != nullptr, "run_control_signal_gating: stimulus factory required");
  CsgResult result;
  result.netlist = design;
  Netlist& nl = result.netlist;

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

  std::unordered_set<std::uint32_t> gated_regs;
  for (const IsolationCandidate& cand : cands) {
    if (cand.already_isolated) continue;
    ++result.num_candidates;

    // Structural sources of the candidate's input cone.
    const std::vector<CellId> cone = combinational_fanin_cone(nl, cand.cell);
    std::unordered_set<std::uint32_t> cone_set;
    for (CellId id : cone) cone_set.insert(id.value());

    std::vector<CellId> source_regs;
    std::string reason;
    for (CellId id : cone) {
      for (NetId in : nl.cell(id).ins) {
        const CellId drv = nl.net(in).driver;
        const Cell& d = nl.cell(drv);
        if (d.kind == CellKind::PrimaryInput) {
          // Control signals (mux selects, enables) are legitimately
          // PI-driven; the blind spot concerns *data* fed straight from
          // PIs into the cone's datapath cells.
          if (nl.net(in).width > 1) {
            reason = "data fed directly by primary input";
          }
          continue;
        }
        if (d.kind == CellKind::Reg) {
          source_regs.push_back(drv);
          for (const Pin& pin : nl.net(in).fanouts) {
            if (cone_set.find(pin.cell.value()) == cone_set.end() &&
                nl.cell(pin.cell).kind != CellKind::PrimaryOutput) {
              reason = "multiple-fanout register '" + d.name + "' leaves the cone";
            }
          }
        }
      }
      if (!reason.empty()) break;
    }
    if (reason.empty() && source_regs.empty()) {
      reason = "no source register to gate";
    }
    if (reason.empty()) {
      for (CellId r : source_regs) {
        if (gated_regs.count(r.value())) {
          reason = "source register shared with an already-gated candidate";
          break;
        }
      }
    }
    if (!reason.empty()) {
      result.uncovered.push_back(cand.cell);
      result.uncovered_reasons.push_back(reason);
      continue;
    }

    // Gate every source register's enable with the activation function
    // (current-cycle approximation of the required one-cycle look-ahead).
    const NetId as_net = synthesize_activation_logic(
        nl, pool, vars, cand.activation, "csg_" + std::to_string(cand.cell.value()));
    std::sort(source_regs.begin(), source_regs.end());
    source_regs.erase(std::unique(source_regs.begin(), source_regs.end()), source_regs.end());
    for (CellId r : source_regs) {
      const NetId old_en = nl.cell(r).ins[1];
      const NetId new_en = nl.add_binop(
          CellKind::And, nl.fresh_net_name("csg_en_" + std::to_string(r.value())), old_en,
          as_net);
      nl.reconnect_input(r, 1, new_en);
      gated_regs.insert(r.value());
    }
    result.covered.push_back(cand.cell);
    ++result.num_covered;
  }

  {
    ParallelSimulator sim(nl, 1);
    sim.set_stimulus([&stimuli](unsigned) { return stimuli(); });
    sim.run(opt.sim_cycles);
    result.power_after_mw = PowerEstimator(opt.power).estimate(nl, sim.stats()).total_mw;
  }
  return result;
}

}  // namespace opiso
