#include "obs/run_report.hpp"

#include "obs/attribution.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace opiso::obs {

namespace {

JsonValue options_json(const IsolationOptions& opt) {
  JsonValue o = JsonValue::object();
  o["style"] = std::string(isolation_style_name(opt.style));
  o["choose_style_per_candidate"] = opt.choose_style_per_candidate;
  o["simplify_activation"] = opt.simplify_activation;
  o["use_reachability_dont_cares"] = opt.use_reachability_dont_cares;
  o["primary_model"] = opt.primary_model == PrimaryModel::Refined ? "refined" : "simple";
  o["omega_p"] = opt.omega_p;
  o["omega_a"] = opt.omega_a;
  o["h_min"] = opt.h_min;
  o["slack_threshold_ns"] = opt.slack_threshold_ns;
  o["sim_cycles"] = opt.sim_cycles;
  o["warmup_cycles"] = opt.warmup_cycles;
  o["max_iterations"] = opt.max_iterations;
  o["register_lookahead"] = opt.activation.register_lookahead;
  if (opt.confidence.enabled) {
    o["confidence_level"] = opt.confidence.level;
    o["confidence_batch_frames"] = opt.confidence.batch_frames;
    if (opt.confidence.min_power_ci_halfwidth_mw >= 0.0) {
      o["min_ci_halfwidth_mw"] = opt.confidence.min_power_ci_halfwidth_mw;
    }
  }
  return o;
}

JsonValue candidate_json(const CandidateEvaluation& ev) {
  JsonValue c = JsonValue::object();
  c["cell"] = ev.cell_name;
  c["block"] = ev.block;
  c["style"] = std::string(isolation_style_name(ev.style));
  c["pr_redundant"] = ev.pr_redundant;
  if (ev.pr_redundant_ci_halfwidth > 0.0) {
    c["pr_redundant_ci_halfwidth"] = ev.pr_redundant_ci_halfwidth;
  }
  c["primary_mw"] = ev.primary_mw;
  c["secondary_mw"] = ev.secondary_mw;
  c["overhead_mw"] = ev.overhead_mw;
  c["r_power"] = ev.r_power;
  c["r_area"] = ev.r_area;
  c["h"] = ev.h;
  c["slack_before_ns"] = ev.slack_before_ns;
  c["est_slack_after_ns"] = ev.est_slack_after_ns;
  c["decision"] = candidate_decision(ev);
  c["activation"] = ev.activation_str;
  return c;
}

}  // namespace

const char* candidate_decision(const CandidateEvaluation& ev) {
  if (ev.isolated_now) return "isolated";
  if (!ev.legal) return "illegal";
  if (ev.slack_vetoed) return "slack-veto";
  return "rejected";
}

JsonValue build_run_report(const IsolationResult& result, const IsolationOptions& options) {
  JsonValue doc = JsonValue::object();
  doc["schema"] = "opiso.run_report/v1";
  doc["design"] = result.netlist.name();
  doc["options"] = options_json(options);

  JsonValue& summary = doc["summary"];
  summary["power_before_mw"] = result.power_before_mw;
  summary["power_after_mw"] = result.power_after_mw;
  summary["power_reduction_pct"] = result.power_reduction_pct();
  summary["area_before_um2"] = result.area_before_um2;
  summary["area_after_um2"] = result.area_after_um2;
  summary["area_increase_pct"] = result.area_increase_pct();
  summary["slack_before_ns"] = result.slack_before_ns;
  summary["slack_after_ns"] = result.slack_after_ns;
  summary["slack_reduction_pct"] = result.slack_reduction_pct();
  summary["modules_isolated"] = result.records.size();
  summary["iterations"] = result.iterations.size();

  JsonValue iterations = JsonValue::array();
  for (const IterationLog& log : result.iterations) {
    JsonValue it = JsonValue::object();
    it["iteration"] = log.iteration;
    it["total_power_mw"] = log.total_power_mw;
    if (log.power_mw_ci_halfwidth > 0.0) {
      // The ΔP convergence trace: total power ± this per iteration.
      it["power_mw_ci_halfwidth"] = log.power_mw_ci_halfwidth;
    }
    it["pool_size"] = log.pool_size;
    it["num_isolated"] = log.num_isolated;
    JsonValue cands = JsonValue::array();
    for (const CandidateEvaluation& ev : log.evaluations) cands.push_back(candidate_json(ev));
    it["candidates"] = std::move(cands);
    iterations.push_back(std::move(it));
  }
  doc["iterations"] = std::move(iterations);

  JsonValue records = JsonValue::array();
  for (const IsolationRecord& rec : result.records) {
    JsonValue r = JsonValue::object();
    r["cell"] = result.netlist.cell(rec.candidate).name;
    r["style"] = std::string(isolation_style_name(rec.style));
    r["as_net"] = result.netlist.net(rec.as_net).name;
    r["isolated_bits"] = rec.isolated_bits;
    r["activation_literals"] = rec.literal_count;
    records.push_back(std::move(r));
  }
  doc["isolated_modules"] = std::move(records);

  if (!result.confidence.is_null()) doc["confidence"] = result.confidence;
  if (!result.coverage.is_null()) doc["coverage"] = result.coverage;
  if (!result.rewrite.is_null()) doc["rewrite"] = result.rewrite;

  doc["power_attribution"] = build_power_attribution(result);
  if (Tracer::instance().enabled() && Tracer::instance().num_events() > 0) {
    doc["profile"] = profile_to_json(build_profile_tree(Tracer::instance().events()));
  }
  doc["metrics"] = metrics().snapshot();
  return doc;
}

}  // namespace opiso::obs
