#include "obs/run_report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iomanip>
#include <ostream>
#include <set>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace opiso::obs {

namespace {

JsonValue options_json(const IsolationOptions& opt) {
  JsonValue o = JsonValue::object();
  o["style"] = std::string(isolation_style_name(opt.style));
  o["choose_style_per_candidate"] = opt.choose_style_per_candidate;
  o["use_reachability_dont_cares"] = opt.use_reachability_dont_cares;
  o["primary_model"] = opt.primary_model == PrimaryModel::Refined ? "refined" : "simple";
  o["omega_p"] = opt.omega_p;
  o["omega_a"] = opt.omega_a;
  o["h_min"] = opt.h_min;
  o["slack_threshold_ns"] = opt.slack_threshold_ns;
  o["sim_cycles"] = opt.sim_cycles;
  o["warmup_cycles"] = opt.warmup_cycles;
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

JsonValue term_json(const SavingsTerm& term) {
  JsonValue t = JsonValue::object();
  t["kind"] = term.kind;
  t["mw"] = term.mw;
  t["probability"] = term.probability;
  t["rate_a"] = term.rate_a;
  if (term.rate_b != 0.0) t["rate_b"] = term.rate_b;
  if (!term.source_a.empty()) t["source_a"] = term.source_a;
  if (!term.source_b.empty()) t["source_b"] = term.source_b;
  if (term.rescaled_a) t["rescaled_a"] = true;
  if (term.rescaled_b) t["rescaled_b"] = true;
  if (!term.fanout.empty()) {
    t["fanout"] = term.fanout;
    t["fanout_port"] = term.fanout_port;
    t["z_j"] = term.z_j;
  }
  return t;
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
  JsonValue terms = JsonValue::array();
  for (const SavingsTerm& t : ev.attribution) terms.push_back(term_json(t));
  c["terms"] = std::move(terms);
  return c;
}

// ---------------------------------------------------------------------------
// Reading a report back. A member the text views read that is missing
// or of the wrong JSON type is a ParseError naming it, so a damaged or
// foreign document never reaches JsonValue's invariant checks.

using Kind = JsonValue::Kind;

[[noreturn]] void malformed(std::string_view key, const char* type) {
  throw ParseError("run report: \"" + std::string(key) + "\" must be " + type);
}

const JsonValue& member(const JsonValue& obj, std::string_view key, Kind kind, const char* type) {
  if (!obj.contains(key) || obj.at(key).kind() != kind) malformed(key, type);
  return obj.at(key);
}

double number(const JsonValue& obj, std::string_view key) {
  return member(obj, key, Kind::Number, "a number").as_number();
}

long long integer(const JsonValue& obj, std::string_view key) {
  const double v = number(obj, key);
  if (v != std::floor(v) || std::abs(v) > 9.007199254740992e15) malformed(key, "an integer");
  return static_cast<long long>(v);
}

const std::string& text(const JsonValue& obj, std::string_view key) {
  return member(obj, key, Kind::String, "a string").as_string();
}

/// Array member `key` of objects.
const std::vector<JsonValue>& rows(const JsonValue& obj, std::string_view key) {
  const char* type = "an array of objects";
  const std::vector<JsonValue>& elements = member(obj, key, Kind::Array, type).elements();
  if (!std::all_of(elements.begin(), elements.end(), std::mem_fn(&JsonValue::is_object))) {
    malformed(key, type);
  }
  return elements;
}

// A term omits a false flag and a zero rate_b.
bool flag(const JsonValue& t, std::string_view key) {
  return t.contains(key) && member(t, key, Kind::Bool, "a boolean").as_bool();
}
double rate_b(const JsonValue& t) { return t.contains("rate_b") ? number(t, "rate_b") : 0.0; }

/// The iterations of an opiso.run_report/v1 document.
const std::vector<JsonValue>& report_iterations(const JsonValue& report) {
  const bool named =
      report.is_object() && report.contains("schema") && report.at("schema").is_string();
  if (!named || report.at("schema").as_string() != "opiso.run_report/v1") {
    throw ParseError("run report: expected schema opiso.run_report/v1, found " +
                     (named ? "'" + report.at("schema").as_string() + "'" : "no schema"));
  }
  return rows(report, "iterations");
}

bool kind_is(const std::string& kind, const char* prefix) {
  return kind.rfind(prefix, 0) == 0;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
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

  if (Tracer::instance().enabled() && Tracer::instance().num_events() > 0) {
    doc["profile"] = profile_to_json(build_profile_tree(Tracer::instance().events()));
  }
  doc["metrics"] = metrics().snapshot();
  return doc;
}

void write_iteration_table(std::ostream& os, const JsonValue& report) {
  const std::vector<JsonValue>& iterations = report_iterations(report);
  // The decision names the first flag that applies; the one it hides,
  // an illegal candidate's slack veto, is the threshold comparison.
  const double threshold =
      number(member(report, "options", Kind::Object, "an object"), "slack_threshold_ns");
  std::ostringstream out;  // the whole table or, on a damaged report, nothing
  out << std::fixed << std::setprecision(4);
  for (const JsonValue& it : iterations) {
    out << "iteration " << integer(it, "iteration") << " (total " << std::setprecision(3)
        << number(it, "total_power_mw") << " mW, " << integer(it, "num_isolated")
        << " isolated)\n"
        << std::setprecision(4);
    for (const JsonValue& c : rows(it, "candidates")) {
      const std::string& decision = text(c, "decision");
      out << "  " << (decision == "isolated" ? '+' : ' ') << ' ' << text(c, "cell") << " [block "
          << integer(c, "block") << "] Pr(!f)=" << std::setprecision(2) << number(c, "pr_redundant")
          << std::setprecision(4) << " dPp=" << number(c, "primary_mw")
          << " dPs=" << number(c, "secondary_mw") << " Pi=" << number(c, "overhead_mw")
          << " h=" << number(c, "h");
      if (decision == "slack-veto" ||
          (decision == "illegal" && number(c, "est_slack_after_ns") < threshold)) {
        out << " [slack veto]";
      }
      if (decision == "illegal") out << " [illegal]";
      out << "  AS=" << text(c, "activation") << "\n";
    }
  }
  os << out.str();
}

bool write_candidate_narrative(std::ostream& os, const JsonValue& report,
                               std::string_view cell_name) {
  std::ostringstream out;  // the narrative or, on a damaged report, nothing
  std::set<std::string> names;
  for (const JsonValue& it : report_iterations(report)) {
    for (const JsonValue& c : rows(it, "candidates")) {
      names.insert(text(c, "cell"));
      if (text(c, "cell") != cell_name) continue;
      out << "iteration " << integer(it, "iteration") << ": candidate '" << cell_name
          << "' (block " << integer(c, "block") << ", style " << text(c, "style") << ")\n";
      out << "  activation AS = " << text(c, "activation")
          << ", Pr(!f) = " << fmt(number(c, "pr_redundant")) << "\n";
      const std::vector<JsonValue>& terms = rows(c, "terms");
      out << "  primary savings " << fmt(number(c, "primary_mw")) << " mW (Eq. 1-3):\n";
      for (const JsonValue& t : terms) {
        if (!kind_is(text(t, "kind"), "primary.")) continue;
        out << "    [" << text(t, "kind") << "] Pr = " << fmt(number(t, "probability"))
            << ", rates (" << fmt(number(t, "rate_a")) << ", " << fmt(rate_b(t)) << ")";
        if (t.contains("source_a")) out << ", A from " << text(t, "source_a");
        if (flag(t, "rescaled_a")) out << " (Eq. 2 rescaled)";
        if (t.contains("source_b")) out << ", B from " << text(t, "source_b");
        if (flag(t, "rescaled_b")) out << " (Eq. 2 rescaled)";
        out << " -> " << fmt(number(t, "mw")) << " mW\n";
      }
      const bool any_secondary = std::any_of(terms.begin(), terms.end(), [](const JsonValue& t) {
        return kind_is(text(t, "kind"), "secondary.");
      });
      out << "  secondary savings " << fmt(number(c, "secondary_mw")) << " mW (Eq. 4-5"
          << (any_secondary ? "):\n" : "): no connected fanout candidates\n");
      for (const JsonValue& t : terms) {
        if (!kind_is(text(t, "kind"), "secondary.")) continue;
        out << "    [" << text(t, "kind") << "] fanout " << text(t, "fanout") << " port "
            << integer(t, "fanout_port")
            << " (z_j = " << (flag(t, "z_j") ? 1 : 0) << "), Pr = " << fmt(number(t, "probability"))
            << ", pin rate " << fmt(number(t, "rate_a"))
            << (flag(t, "rescaled_a") ? " (Eq. 2 rescaled)" : "") << " -> " << fmt(number(t, "mw"))
            << " mW\n";
      }
      out << "  isolation overhead " << fmt(number(c, "overhead_mw")) << " mW:\n";
      for (const JsonValue& t : terms) {
        if (!kind_is(text(t, "kind"), "overhead.")) continue;
        out << "    [" << text(t, "kind") << "]";
        if (t.contains("source_a")) out << " " << text(t, "source_a");
        out << " rates (" << fmt(number(t, "rate_a")) << ", " << fmt(rate_b(t)) << ") -> "
            << fmt(number(t, "mw")) << " mW\n";
      }
      out << "  cost: rP = " << fmt(number(c, "r_power")) << ", rA = " << fmt(number(c, "r_area"))
          << ", h = " << fmt(number(c, "h")) << "; slack " << fmt(number(c, "slack_before_ns"))
          << " -> est. " << fmt(number(c, "est_slack_after_ns")) << " ns\n";
      out << "  decision: " << text(c, "decision") << "\n";
    }
  }
  const bool found = names.contains(std::string(cell_name));
  if (!found) {
    out << "candidate '" << cell_name << "' was never evaluated; known candidates:";
    for (const std::string& n : names) out << " " << n;
    out << "\n";
  }
  os << out.str();
  return found;
}

}  // namespace opiso::obs
