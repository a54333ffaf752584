#include "isolation/algorithm.hpp"

#include "boolfn/bdd.hpp"
#include "fsm/reachability.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/parallel_sim.hpp"

#include <algorithm>
#include <iostream>
#include <optional>
#include <unordered_map>
#include <unordered_set>

namespace opiso {

namespace {

/// Depth of the factored form (levels of logic after synthesis).
std::size_t expr_depth(const ExprPool& pool, ExprRef r) {
  std::unordered_map<std::uint32_t, std::size_t> memo;
  std::function<std::size_t(ExprRef)> go = [&](ExprRef cur) -> std::size_t {
    if (auto it = memo.find(cur.value()); it != memo.end()) return it->second;
    const ExprNode& n = pool.node(cur);
    std::size_t d = 0;
    switch (n.op) {
      case ExprOp::Const0:
      case ExprOp::Const1:
      case ExprOp::Var:
        d = 0;
        break;
      case ExprOp::Not:
        d = 1 + go(n.a);
        break;
      case ExprOp::And:
      case ExprOp::Or:
        d = 1 + std::max(go(n.a), go(n.b));
        break;
    }
    memo.emplace(cur.value(), d);
    return d;
  };
  return go(r);
}

/// Lanes a round's statistics were folded over: frames of the batch
/// accumulator times lanes equals measured cycles exactly, so the
/// division is exact.
std::uint64_t stats_lanes(const ActivityStats& stats) {
  const std::uint64_t frames = stats.net_batches.num_frames();
  return frames > 0 ? stats.cycles / frames : 0;
}

}  // namespace

ActivityStats measure_activity(const Netlist& nl, const ExprPool* pool, const NetVarMap* vars,
                               const IsolationOptions& opt,
                               const std::function<void(ProbeHost&)>& register_on,
                               CycleSink* sink) {
  OPISO_REQUIRE(opt.lane_stimuli != nullptr, "measure_activity: lane stimulus factory required");
  ParallelSimulator sim(nl, opt.sim_lanes, pool, vars);
  if (opt.confidence.enabled) sim.enable_batch_stats(opt.confidence.batch_frames);
  if (register_on) register_on(sim);
  sim.set_stimulus(opt.lane_stimuli);
  const std::uint64_t lanes = sim.lanes();
  if (opt.warmup_cycles > 0) sim.warmup((opt.warmup_cycles + lanes - 1) / lanes);
  sim.set_cycle_sink(sink);
  sim.run(std::max<std::uint64_t>(1, opt.sim_cycles / lanes));
  return sim.stats();
}

CoverageRound measure_coverage(const Netlist& nl, const IsolationOptions& opt) {
  ExprPool pool;
  NetVarMap vars;
  const ActivationAnalysis analysis = derive_activation(nl, pool, vars, opt.activation);
  const std::vector<IsolationCandidate> cands =
      identify_candidates(nl, combinational_blocks(nl), analysis, pool, opt.candidates);
  std::vector<CandidateExercise> exercise;
  exercise.reserve(cands.size());
  CoverageRound round;
  round.stats = measure_activity(nl, &pool, &vars, opt, [&](ProbeHost& sim) {
    for (const IsolationCandidate& c : cands) {
      exercise.push_back({nl.cell(c.cell).name, sim.add_probe(c.activation)});
    }
  });
  round.coverage = build_coverage_section(nl, round.stats, exercise);
  return round;
}

double estimate_slack_after_isolation(const Netlist& nl, const DelayModel& dm,
                                      const TimingReport& timing, const ExprPool& pool,
                                      const NetVarMap& vars, CellId cell, ExprRef activation,
                                      IsolationStyle style) {
  const Cell& c = nl.cell(cell);
  const CellKind bank_kind = isolation_cell_kind(style);

  // Arrival of the activation signal: latest tapped control net plus the
  // synthesized logic depth.
  double arr_as = 0.0;
  double min_ctrl_slack = dm.clock_period_ns;
  const std::vector<BoolVar> sup = pool.support(activation);
  for (BoolVar v : sup) {
    const NetId ctrl = vars.net_of(v);
    arr_as = std::max(arr_as, timing.net_arrival(ctrl));
    // The activation logic adds one fanout pin of load to each tapped
    // control net, eating into that net's own slack.
    min_ctrl_slack = std::min(min_ctrl_slack, timing.net_slack(ctrl) - dm.load_per_fanout_ns);
  }
  arr_as += static_cast<double>(expr_depth(pool, activation)) *
            (dm.cell_delay(CellKind::And, 1) + dm.load_per_fanout_ns);

  // Banks delay every data path into the module; the AS path merges in.
  double worst_delta = 0.0;
  for (NetId in : c.ins) {
    const double arr_pin = timing.net_arrival(in);
    const double new_arr = std::max(arr_pin, arr_as) +
                           dm.cell_delay(bank_kind, nl.net(in).width) + dm.load_per_fanout_ns;
    worst_delta = std::max(worst_delta, new_arr - arr_pin);
  }
  const double slack_now = cell_slack(nl, timing, cell);
  return std::min(slack_now - worst_delta, min_ctrl_slack);
}

IsolationResult run_operand_isolation(const Netlist& design, const StimulusFactory& stimuli,
                                      const IsolationOptions& options) {
  OPISO_REQUIRE(options.lane_stimuli != nullptr || stimuli != nullptr,
                "run_operand_isolation: stimulus factory required");
  // A caller with only a single-stream factory measures on one lane of
  // that stream.
  IsolationOptions opt = options;
  if (!opt.lane_stimuli) {
    opt.lane_stimuli = [&stimuli](unsigned) { return stimuli(); };
    opt.sim_lanes = 1;
  }
  OPISO_SPAN("isolate.run");
  obs::metrics().counter("isolate.runs").add(1);
  IsolationResult result;
  result.netlist = design;
  Netlist& nl = result.netlist;
  nl.validate();

  // The "before" figures always describe the input design, also when
  // the rewrite below replaces it.
  result.area_before_um2 = opt.area.total_area_um2(nl);
  result.slack_before_ns = run_sta(nl, opt.delay).worst_slack;
  bool measured_before = false;

  if (opt.rewrite) {
    // Datapath rewriting runs first so isolation sees the cheaper
    // structure (and its fresh idle-prone operators). The rewrite
    // inherits this run's cost weights and candidate width floor.
    RewriteOptions ropt = opt.rewrite_options;
    ropt.omega_p = opt.omega_p;
    ropt.omega_a = opt.omega_a;
    ropt.iso_min_width = opt.candidates.min_width;
    const RewriteResult rw = rewrite_datapath(nl, ropt);
    result.rewrite = rewrite_report_section(rw);
    if (rw.rewritten) {
      // One extra round on the input: probes do not touch toggle
      // counts, so this is bit for bit the power a plain isolate run
      // measures in its first iteration.
      const ActivityStats input_stats = measure_activity(nl, nullptr, nullptr, opt);
      result.power_before_mw = PowerEstimator(opt.power).estimate(nl, input_stats).total_mw;
      measured_before = true;
      nl = rw.netlist;
    }
  }

  // Candidate pool: cells still eligible for isolation. Populated on the
  // first iteration (Algorithm 1 lines 2–11) and shrunk as candidates
  // are consumed (line 28: the block's best candidate leaves the pool
  // whether or not it was isolated).
  std::unordered_set<std::uint32_t> pool_ids;
  bool pool_initialized = false;

  for (int iteration = 0; iteration < opt.max_iterations; ++iteration) {
    OPISO_SPAN("isolate.iteration");
    obs::metrics().counter("isolate.iterations").add(1);
    // Fresh Boolean universe per iteration: the netlist has changed.
    ExprPool pool;
    NetVarMap vars;
    std::optional<ControlSpace> control_space;  // lazily explored per iteration
    const ActivationAnalysis analysis = derive_activation(nl, pool, vars, opt.activation);
    const std::vector<CombBlock> blocks = combinational_blocks(nl);
    const std::vector<IsolationCandidate> cands =
        identify_candidates(nl, blocks, analysis, pool, opt.candidates);
    if (!pool_initialized) {
      for (const IsolationCandidate& c : cands) {
        if (!c.already_isolated) pool_ids.insert(c.cell.value());
      }
      pool_initialized = true;
    }

    const TimingReport timing = run_sta(nl, opt.delay);

    // Simulate: power estimate + all signal statistics (line 16).
    SavingsEstimator estimator(nl, pool, vars, cands, opt.power);
    const ActivityStats stats = measure_activity(
        nl, &pool, &vars, opt,
        [&estimator](ProbeHost& sim) { estimator.register_probes(sim); });
    const PowerBreakdown pb = PowerEstimator(opt.power).estimate(nl, stats);
    if (!measured_before) {
      result.power_before_mw = pb.total_mw;
      measured_before = true;
    }

    IterationLog log;
    log.iteration = iteration;
    log.total_power_mw = pb.total_mw;
    if (opt.confidence.enabled && stats.net_batches.enabled()) {
      log.power_mw_ci_halfwidth =
          obs::weighted_interval(stats.net_batches,
                                 PowerEstimator(opt.power).net_toggle_weights(nl),
                                 stats_lanes(stats), opt.confidence.level)
              .halfwidth;
    }
    log.pool_size = pool_ids.size();
    obs::metrics().gauge("isolate.pool_size").set(static_cast<double>(pool_ids.size()));

    // Evaluate every still-eligible candidate (lines 18–21), either for
    // the globally chosen style or — with choose_style_per_candidate —
    // for all three, keeping the best-scoring one.
    const std::vector<IsolationStyle> styles =
        opt.choose_style_per_candidate
            ? std::vector<IsolationStyle>{IsolationStyle::And, IsolationStyle::Or,
                                          IsolationStyle::Latch}
            : std::vector<IsolationStyle>{opt.style};
    std::vector<CandidateEvaluation> evals;
    obs::Span span_evaluate("isolate.evaluate");
    const double total_area = std::max(opt.area.total_area_um2(nl), 1e-12);
    for (std::size_t i = 0; i < cands.size(); ++i) {
      const IsolationCandidate& cand = cands[i];
      if (cand.already_isolated || pool_ids.find(cand.cell.value()) == pool_ids.end()) continue;
      double pr_ci = 0.0;
      if (opt.confidence.enabled && stats.probe_batches.enabled()) {
        // Pr(!f) and Pr(f) share an interval width (complement).
        pr_ci = obs::batch_interval(stats.probe_batches, estimator.activation_probe(i),
                                    stats_lanes(stats), opt.confidence.level)
                    .halfwidth;
      }
      CandidateEvaluation best;
      bool have_best = false;
      for (IsolationStyle style : styles) {
        CandidateEvaluation ev;
        ev.cell = cand.cell;
        ev.cell_name = nl.cell(cand.cell).name;
        ev.block = cand.block;
        ev.style = style;
        ev.activation_str = activation_to_string(nl, pool, vars, cand.activation);
        ev.pr_redundant = estimator.pr_redundant(i, stats);
        ev.pr_redundant_ci_halfwidth = pr_ci;
        ev.primary_mw = estimator.primary_savings_mw(i, stats, opt.primary_model,
                                                     &ev.attribution);
        ev.secondary_mw = estimator.secondary_savings_mw(i, stats, &ev.attribution);
        ev.overhead_mw = estimator.overhead_mw(i, stats, style, &ev.attribution);
        ev.r_power = (ev.primary_mw + ev.secondary_mw - ev.overhead_mw) /
                     std::max(pb.total_mw, 1e-12);
        // Area cost: one bank bit per isolated input bit + literal count
        // of the activation function (Sec. 5.1).
        double bank_area = 0.0;
        for (NetId in : nl.cell(cand.cell).ins) {
          bank_area += opt.area.cell_area_um2(isolation_cell_kind(style), nl.net(in).width);
        }
        const double logic_area = static_cast<double>(pool.literal_count(cand.activation)) *
                                  opt.area.cell_area_um2(CellKind::And, 1);
        ev.r_area = (bank_area + logic_area) / total_area;
        ev.h = opt.omega_p * ev.r_power - opt.omega_a * ev.r_area;
        ev.slack_before_ns = cell_slack(nl, timing, cand.cell);
        ev.est_slack_after_ns = estimate_slack_after_isolation(
            nl, opt.delay, timing, pool, vars, cand.cell, cand.activation, style);
        ev.slack_vetoed = ev.est_slack_after_ns < opt.slack_threshold_ns;
        ev.legal = isolation_is_legal(nl, pool, vars, cand.cell, cand.activation);
        if (!have_best || (ev.h > best.h && !ev.slack_vetoed) ||
            (best.slack_vetoed && !ev.slack_vetoed)) {
          best = std::move(ev);
          have_best = true;
        }
      }
      evals.push_back(std::move(best));
    }
    obs::metrics().counter("isolate.candidates_evaluated").add(evals.size());
    for (const CandidateEvaluation& ev : evals) {
      obs::metrics().histogram("isolate.h").record(ev.h);
      obs::metrics().histogram("isolate.primary_savings_mw").record(ev.primary_mw);
      obs::metrics().histogram("isolate.secondary_savings_mw").record(ev.secondary_mw);
      if (ev.slack_vetoed) obs::metrics().counter("isolate.slack_vetoes").add(1);
      if (!ev.legal) obs::metrics().counter("isolate.illegal_candidates").add(1);
    }
    span_evaluate.end();

    // Per block, isolate the best candidate if worthwhile (lines 22–28).
    std::size_t isolated_count = 0;
    obs::Span span_commit("isolate.commit");
    std::unordered_set<int> blocks_seen;
    for (const CandidateEvaluation& ev : evals) blocks_seen.insert(ev.block);
    for (int block : blocks_seen) {
      CandidateEvaluation* best = nullptr;
      for (CandidateEvaluation& ev : evals) {
        if (ev.block != block || ev.slack_vetoed || !ev.legal) continue;
        if (best == nullptr || ev.h > best->h) best = &ev;
      }
      if (best == nullptr) continue;
      if (best->h >= opt.h_min) {
        // Re-locate the candidate's activation expr and isolate.
        for (std::size_t i = 0; i < cands.size(); ++i) {
          if (cands[i].cell == best->cell) {
            ExprRef f = cands[i].activation;
            if (opt.use_reachability_dont_cares) {
              if (!control_space) control_space = explore_control_space(nl);
              f = minimize_with_reachability(*control_space, nl, pool, vars, f);
            }
            if (opt.simplify_activation) {
              // Graceful degradation: the factored form f is already
              // logically equivalent to the canonical result, so on
              // budget exhaustion we keep it rather than fail the run.
              try {
                BddManager mgr(BddBudget{opt.bdd_node_budget, 0});
                f = mgr.simplify_expr(pool, f);
              } catch (const ResourceError&) {
                obs::metrics().counter("isolate.bdd_budget_fallbacks").add(1);
              }
            }
            result.records.push_back(isolate_module(nl, pool, vars, best->cell, f, best->style));
            break;
          }
        }
        best->isolated_now = true;
        ++isolated_count;
        obs::metrics().counter("isolate.candidates_isolated").add(1);
        obs::metrics().histogram("isolate.h_accepted").record(best->h);
        if (opt.verbose) {
          std::cerr << "[opiso] iter " << iteration << ": isolated " << best->cell_name
                    << " (h=" << best->h << ", AS = " << best->activation_str << ")\n";
        }
      } else {
        obs::metrics().counter("isolate.candidates_rejected").add(1);
      }
      pool_ids.erase(best->cell.value());  // line 28: consumed either way
    }
    span_commit.end();

    log.evaluations = std::move(evals);
    log.num_isolated = isolated_count;
    if (opt.on_iteration) opt.on_iteration(log);
    result.iterations.push_back(std::move(log));
    if (isolated_count == 0) break;  // until !isolation (line 30)
  }

  // Final metrics on the transformed design: the coverage round sets
  // power_after and reports activation-signal exercise counts for every
  // candidate of the final netlist (the isolated ones included).
  {
    OPISO_SPAN("isolate.final_measure");
    CoverageRound round = measure_coverage(nl, opt);
    const PowerEstimator estimator(opt.power);
    result.power_after_mw = estimator.estimate(nl, round.stats).total_mw;
    result.coverage = std::move(round.coverage);
    if (opt.confidence.enabled) {
      result.confidence =
          build_confidence_section(nl, round.stats, opt.confidence,
                                   estimator.net_toggle_weights(nl), estimator.static_mw(nl));
      result.confidence_converged = confidence_converged(result.confidence);
    }
  }
  if (!measured_before) {
    // No candidates at all: before == after.
    result.power_before_mw = result.power_after_mw;
  }
  result.area_after_um2 = opt.area.total_area_um2(nl);
  result.slack_after_ns = run_sta(nl, opt.delay).worst_slack;
  return result;
}

}  // namespace opiso
