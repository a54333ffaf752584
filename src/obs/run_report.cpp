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

void write_run_report(JsonWriter& w, const IsolationResult& result,
                      const IsolationOptions& options) {
  w.begin_object();
  w.key("schema").value("opiso.run_report/v1");
  w.key("design").value(result.netlist.name());

  w.key("options").begin_object();
  w.key("style").value(isolation_style_name(options.style));
  w.key("choose_style_per_candidate").value(options.choose_style_per_candidate);
  w.key("use_reachability_dont_cares").value(options.use_reachability_dont_cares);
  w.key("primary_model")
      .value(options.primary_model == PrimaryModel::Refined ? "refined" : "simple");
  w.key("omega_p").value(options.omega_p);
  w.key("omega_a").value(options.omega_a);
  w.key("h_min").value(options.h_min);
  w.key("slack_threshold_ns").value(options.slack_threshold_ns);
  w.key("sim_cycles").value(options.sim_cycles);
  w.key("warmup_cycles").value(options.warmup_cycles);
  w.key("register_lookahead").value(options.activation.register_lookahead);
  if (options.confidence.enabled) {
    w.key("confidence_level").value(options.confidence.level);
    w.key("confidence_batch_frames").value(options.confidence.batch_frames);
    if (options.confidence.min_power_ci_halfwidth_mw >= 0.0) {
      w.key("min_ci_halfwidth_mw").value(options.confidence.min_power_ci_halfwidth_mw);
    }
  }
  w.end_object();

  w.key("summary").begin_object();
  w.key("power_before_mw").value(result.power_before_mw);
  w.key("power_after_mw").value(result.power_after_mw);
  w.key("power_reduction_pct").value(result.power_reduction_pct());
  w.key("area_before_um2").value(result.area_before_um2);
  w.key("area_after_um2").value(result.area_after_um2);
  w.key("area_increase_pct").value(result.area_increase_pct());
  w.key("slack_before_ns").value(result.slack_before_ns);
  w.key("slack_after_ns").value(result.slack_after_ns);
  w.key("slack_reduction_pct").value(result.slack_reduction_pct());
  w.key("modules_isolated").value(result.records.size());
  w.key("iterations").value(result.iterations.size());
  w.end_object();

  w.key("iterations").begin_array();
  for (const IterationLog& log : result.iterations) {
    w.begin_object();
    w.key("iteration").value(log.iteration);
    w.key("total_power_mw").value(log.total_power_mw);
    if (log.power_mw_ci_halfwidth > 0.0) {
      // The ΔP convergence trace: total power ± this per iteration.
      w.key("power_mw_ci_halfwidth").value(log.power_mw_ci_halfwidth);
    }
    w.key("pool_size").value(log.pool_size);
    w.key("num_isolated").value(log.num_isolated);
    w.key("candidates").begin_array();
    for (const CandidateEvaluation& ev : log.evaluations) {
      w.begin_object();
      w.key("cell").value(ev.cell_name);
      w.key("block").value(ev.block);
      w.key("style").value(isolation_style_name(ev.style));
      w.key("pr_redundant").value(ev.pr_redundant);
      if (ev.pr_redundant_ci_halfwidth > 0.0) {
        w.key("pr_redundant_ci_halfwidth").value(ev.pr_redundant_ci_halfwidth);
      }
      w.key("primary_mw").value(ev.primary_mw);
      w.key("secondary_mw").value(ev.secondary_mw);
      w.key("overhead_mw").value(ev.overhead_mw);
      w.key("r_power").value(ev.r_power);
      w.key("r_area").value(ev.r_area);
      w.key("h").value(ev.h);
      w.key("slack_before_ns").value(ev.slack_before_ns);
      w.key("est_slack_after_ns").value(ev.est_slack_after_ns);
      w.key("decision").value(candidate_decision(ev));
      w.key("activation").value(ev.activation_str);
      w.key("terms").begin_array();
      for (const SavingsTerm& t : ev.attribution) {
        w.begin_object();
        w.key("kind").value(t.kind);
        w.key("mw").value(t.mw);
        w.key("probability").value(t.probability);
        w.key("rate_a").value(t.rate_a);
        if (t.rate_b != 0.0) w.key("rate_b").value(t.rate_b);
        if (!t.source_a.empty()) w.key("source_a").value(t.source_a);
        if (!t.source_b.empty()) w.key("source_b").value(t.source_b);
        if (t.rescaled_a) w.key("rescaled_a").value(true);
        if (t.rescaled_b) w.key("rescaled_b").value(true);
        if (!t.fanout.empty()) {
          w.key("fanout").value(t.fanout);
          w.key("fanout_port").value(t.fanout_port);
          w.key("z_j").value(t.z_j);
        }
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.key("isolated_modules").begin_array();
  for (const IsolationRecord& rec : result.records) {
    w.begin_object();
    w.key("cell").value(result.netlist.cell(rec.candidate).name);
    w.key("style").value(isolation_style_name(rec.style));
    w.key("as_net").value(result.netlist.net(rec.as_net).name);
    w.key("isolated_bits").value(rec.isolated_bits);
    w.key("activation_literals").value(rec.literal_count);
    w.end_object();
  }
  w.end_array();

  if (!result.confidence.is_null()) w.key("confidence").value(result.confidence);
  if (!result.coverage.is_null()) w.key("coverage").value(result.coverage);
  if (!result.rewrite.is_null()) w.key("rewrite").value(result.rewrite);

  if (Tracer::instance().enabled() && Tracer::instance().num_events() > 0) {
    w.key("profile").value(profile_to_json(build_profile_tree(Tracer::instance().events())));
  }
  w.key("metrics").value(metrics().snapshot());
  w.end_object();
}

JsonValue build_run_report(const IsolationResult& result, const IsolationOptions& options) {
  JsonWriter w;
  write_run_report(w, result, options);
  return JsonValue::parse(w.str());
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
