#include "lint/lint.hpp"

#include <algorithm>
#include <ostream>

#include "lint/passes.hpp"

namespace opiso::lint {

std::size_t LintReport::count(Severity at_least) const {
  std::size_t n = 0;
  for (const Finding& f : findings) {
    if (static_cast<int>(f.severity) >= static_cast<int>(at_least)) ++n;
  }
  return n;
}

const Finding* LintReport::worst() const {
  const Finding* best = nullptr;
  for (const Finding& f : findings) {
    if (best == nullptr || static_cast<int>(f.severity) > static_cast<int>(best->severity)) {
      best = &f;
    }
  }
  return best;
}

LintContext::LintContext(const Netlist& nl, const LintOptions& options,
                         const SourceMap* source_map)
    : nl_(nl), options_(options), source_map_(source_map) {}

const std::vector<std::vector<CellId>>& LintContext::comb_sccs() {
  if (!sccs_) sccs_ = combinational_sccs(nl_);
  return *sccs_;
}

bool LintContext::acyclic() { return comb_sccs().empty(); }

const ActivationAnalysis& LintContext::activation() {
  OPISO_REQUIRE(acyclic(), "observability requires an acyclic design");
  if (!activation_) activation_ = derive_activation(nl_, pool_, vars_);
  return *activation_;
}

const TimingReport& LintContext::sta() {
  OPISO_REQUIRE(acyclic(), "STA requires an acyclic design");
  if (!sta_) sta_ = run_sta(nl_, options_.delay);
  return *sta_;
}

int LintContext::cell_line(CellId id) const {
  return source_map_ == nullptr ? 0 : source_map_->cell_line(nl_.cell(id).name);
}

int LintContext::net_line(NetId id) const {
  return source_map_ == nullptr ? 0 : source_map_->net_line(nl_.net(id).name);
}

namespace {

constexpr BuiltinPass kBuiltinPasses[] = {
    {"comb_loop", false, comb_loop_pass},
    {"width", false, width_pass},
    {"drivers", false, drivers_pass},
    {"dead_logic", true, dead_logic_pass},
    {"isolation_soundness", true, isolation_soundness_pass},
    {"isolation_overhead", true, isolation_overhead_pass},
};

}  // namespace

std::span<const BuiltinPass> builtin_passes() { return kBuiltinPasses; }

LintReport run_lint(const Netlist& nl, const LintOptions& options,
                    const SourceMap* source_map) {
  LintReport report;
  report.design = nl.name();
  LintContext ctx(nl, options, source_map);

  auto selected = [&](std::string_view name) {
    if (options.only_passes.empty()) return true;
    return std::any_of(options.only_passes.begin(), options.only_passes.end(),
                       [&](const std::string& s) { return s == name; });
  };

  for (const BuiltinPass& pass : builtin_passes()) {
    if (!selected(pass.name)) continue;
    PassResult result;
    result.pass = std::string(pass.name);
    if (pass.requires_acyclic && !ctx.acyclic()) {
      result.skipped = true;
      result.note = "skipped: design has combinational cycles";
      report.passes.push_back(std::move(result));
      continue;
    }
    std::vector<Finding> found;
    pass.run(ctx, found, result.note);
    for (Finding& f : found) f.pass = result.pass;
    result.num_findings = found.size();
    report.findings.insert(report.findings.end(), std::make_move_iterator(found.begin()),
                           std::make_move_iterator(found.end()));
    report.passes.push_back(std::move(result));
  }
  return report;
}

obs::JsonValue build_lint_report(const LintReport& report) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc["schema"] = "opiso.lint/v1";
  doc["design"] = report.design;

  obs::JsonValue passes = obs::JsonValue::array();
  for (const PassResult& p : report.passes) {
    obs::JsonValue row = obs::JsonValue::object();
    row["pass"] = p.pass;
    row["findings"] = static_cast<unsigned long long>(p.num_findings);
    row["skipped"] = p.skipped;
    if (!p.note.empty()) row["note"] = p.note;
    passes.push_back(std::move(row));
  }
  doc["passes"] = std::move(passes);

  obs::JsonValue findings = obs::JsonValue::array();
  for (const Finding& f : report.findings) {
    obs::JsonValue row = obs::JsonValue::object();
    row["code"] = error_code_name(f.code);
    row["severity"] = severity_name(f.severity);
    row["pass"] = f.pass;
    row["message"] = f.message;
    if (!f.cells.empty()) {
      obs::JsonValue cells = obs::JsonValue::array();
      for (const std::string& c : f.cells) cells.push_back(c);
      row["cells"] = std::move(cells);
    }
    if (!f.nets.empty()) {
      obs::JsonValue nets = obs::JsonValue::array();
      for (const std::string& n : f.nets) nets.push_back(n);
      row["nets"] = std::move(nets);
    }
    if (f.source_line > 0) row["source_line"] = f.source_line;
    findings.push_back(std::move(row));
  }
  doc["findings"] = std::move(findings);

  obs::JsonValue totals = obs::JsonValue::object();
  std::size_t errors = 0;
  std::size_t warnings = 0;
  for (const Finding& f : report.findings) {
    if (static_cast<int>(f.severity) >= static_cast<int>(Severity::Error)) {
      ++errors;
    } else {
      ++warnings;
    }
  }
  totals["errors"] = static_cast<unsigned long long>(errors);
  totals["warnings"] = static_cast<unsigned long long>(warnings);
  doc["totals"] = std::move(totals);
  return doc;
}

void print_lint_text(std::ostream& os, const LintReport& report, const std::string& subject) {
  for (const Finding& f : report.findings) {
    os << subject << ':';
    if (f.source_line > 0) os << f.source_line << ':';
    os << ' ' << severity_name(f.severity) << '[' << error_code_name(f.code) << "] " << f.pass
       << ": " << f.message << '\n';
  }
  const std::size_t errors = report.count(Severity::Error);
  const std::size_t warnings = report.findings.size() - errors;
  if (report.findings.empty()) {
    os << subject << ": clean (" << report.passes.size() << " passes)\n";
  } else {
    os << subject << ": " << errors << " error(s), " << warnings << " warning(s)\n";
  }
}

void throw_on_findings(const LintReport& report, Severity fail_on, const std::string& subject) {
  const Finding* worst = nullptr;
  for (const Finding& f : report.findings) {
    if (static_cast<int>(f.severity) < static_cast<int>(fail_on)) continue;
    if (worst == nullptr || static_cast<int>(f.severity) > static_cast<int>(worst->severity)) {
      worst = &f;
    }
  }
  if (worst == nullptr) return;
  std::string msg = "lint rejected '" + subject + "': " + worst->message;
  const std::size_t more = report.count(fail_on) - 1;
  if (more > 0) msg += " (+" + std::to_string(more) + " more finding(s))";
  throw Error(worst->code, msg, worst->severity, SourceLoc{}, worst->source_line);
}

}  // namespace opiso::lint
