// opiso — command-line front door to the library.
//
// Every command and every flag is declared once, in kCommands and
// kOptions below. Parsing, per-command validation and the usage text
// (`opiso` without arguments prints it) are generated from those two
// tables: a command takes only the flags whose row names it, and a flag
// or operand it does not take is a usage error that names it (exit 2).

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "designs/designs.hpp"
#include "frontend/rtl_parser.hpp"
#include "isolation/activation.hpp"
#include "isolation/algorithm.hpp"
#include "isolation/report.hpp"
#include "lint/lint.hpp"
#include "lower/gate_level.hpp"
#include "netlist/stats.hpp"
#include "netlist/text_io.hpp"
#include "netlist/traversal.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/report_diff.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"
#include "obs/vcd.hpp"
#include "obs/wave.hpp"
#include "opt/rewrite_rules.hpp"
#include "power/estimator.hpp"
#include "power/power_trace.hpp"
#include "sim/cycle_trace.hpp"
#include "sim/parallel_sim.hpp"
#include "sim/sweep.hpp"
#include "verify/equiv.hpp"

namespace {

using namespace opiso;

/// Print the usage text generated from kCommands and kOptions, then
/// `error` (if any) as its last line where it stays visible, and exit 2.
[[noreturn]] void usage(const std::string& error = {});

/// The value of numeric flag `flag`: `text` must parse in full as a T
/// (no sign on unsigned types, no NaN or infinity) and lie in
/// [lo, hi]; anything else is a usage error naming the flag.
template <typename T>
T parse_number(const std::string& flag, const std::string& text, T lo, T hi) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  // The bounds are finite, so the range check also rejects NaN and inf.
  if (ec != std::errc{} || ptr != end || !(value >= lo && value <= hi)) {
    const bool low = std::is_unsigned_v<T> || lo != std::numeric_limits<T>::lowest();
    const bool high = hi != std::numeric_limits<T>::max();
    std::ostringstream msg;
    msg << flag << " expects " << (std::is_integral_v<T> ? "an integer" : "a finite number");
    if (low && high) msg << " in [" << lo << ", " << hi << "]";
    else if (low) msg << " >= " << lo;
    else if (high) msg << " <= " << hi;
    msg << ", got '" << text << "'";
    usage(msg.str());
  }
  return value;
}

struct Args {
  std::vector<std::string> positional;
  std::string out_path;
  IsolationStyle style = IsolationStyle::And;
  std::uint64_t cycles = 8192;
  double omega_a = 0.2;
  double h_min = 0.0;
  double slack_threshold = 0.0;
  bool lookahead = false;
  std::string trace_path;
  std::string metrics_path;
  std::string profile_path;
  std::string candidate;
  std::string tolerances_path;
  bool subset = false;
  bool progress = false;
  std::uint64_t seeds = 4;
  // 0 = auto: sweep widens to ParallelSimulator::kMaxLanes (throughput);
  // isolate/power/wave keep the 64-lane measurement discipline so run
  // reports and golden files are invariant to the compiled plane width.
  unsigned lanes = 0;
  unsigned threads = 0;
  std::optional<std::uint64_t> warmup;  ///< --warmup, when given
  bool fail_fast = false;
  double task_budget_sec = 0.0;
  std::uint64_t task_max_lane_cycles = 0;
  std::int64_t inject_failure = -1;  ///< task index to sabotage (testing aid)
  std::size_t bdd_budget = IsolationOptions{}.bdd_node_budget;
  std::string vcd_path;
  std::string trace_power_path;
  std::uint64_t window = 1;
  bool compare_isolated = false;
  bool json_errors = false;
  Severity fail_on = Severity::Error;
  std::vector<std::string> only_passes;
  bool no_prelint = false;
  bool sweep_isolate = false;
  double confidence_level = 0.95;
  double min_ci_halfwidth = -1.0;
  std::uint32_t batch_frames = 16;
  bool no_confidence = false;
  double min_coverage_pct = -1.0;
  std::string metrics_prom_path;
  bool rewrite = false;
};

// ---------------------------------------------------------------------------
// Flag values. Each kOptions row names the setter that parses its value;
// the template arguments are the Args field it sets and, for numbers,
// the accepted range.

struct Option;
using Setter = void (*)(const Option& opt, Args& args, const std::string& value);

/// One kOptions row.
struct Option {
  const char* name;
  Setter set;
  const char* value;       ///< usage placeholder or '|'-separated choices; nullptr = switch
  std::uint32_t commands;  ///< bits of the commands that take the flag
  const char* help;
};

template <auto Field>
void set_switch(const Option&, Args& args, const std::string&) {
  args.*Field = true;
}

template <auto Field>
void set_text(const Option& opt, Args& args, const std::string& value) {
  if (value.empty()) usage(std::string(opt.name) + " expects a non-empty " + opt.value);
  args.*Field = value;
}

template <auto Field, auto Lo, auto Hi>
void set_number(const Option& opt, Args& args, const std::string& value) {
  args.*Field = parse_number(opt.name, value, Lo, Hi);
}

/// opt.value lists the choices in the order of the field's
/// enumerators, so a choice's index is its value.
template <auto Field>
void set_choice(const Option& opt, Args& args, const std::string& value) {
  std::istringstream choices(opt.value);
  int index = 0;
  for (std::string choice; std::getline(choices, choice, '|'); ++index) {
    if (choice == value) {
      args.*Field = static_cast<std::remove_reference_t<decltype(args.*Field)>>(index);
      return;
    }
  }
  usage(std::string(opt.name) + " expects " + opt.value + ", got '" + value + "'");
}
static_assert(int(IsolationStyle::And) == 0 && int(IsolationStyle::Or) == 1 &&
              int(IsolationStyle::Latch) == 2 && int(Severity::Warning) == 0 &&
              int(Severity::Error) == 1);

void set_confidence_level(const Option& opt, Args& args, const std::string& value) {
  args.confidence_level = parse_number(opt.name, value, 0.0, 1.0);
  if (args.confidence_level == 0.0 || args.confidence_level == 1.0) {
    usage(std::string(opt.name) + " expects a number strictly between 0 and 1");
  }
}

/// --pass takes the name of one of lint::builtin_passes().
void add_lint_pass(const Option& opt, Args& args, const std::string& value) {
  std::string names;
  for (const auto& pass : lint::builtin_passes()) {
    if (pass->name() == value) {
      args.only_passes.push_back(value);
      return;
    }
    names.append(names.empty() ? "" : "|").append(pass->name());
  }
  usage(std::string(opt.name) + " expects one of " + names + ", got '" + value + "'");
}

// ---------------------------------------------------------------------------
// Command plumbing and shared helpers.

/// A command's operands after loading, and the flags it was given.
struct Input {
  std::vector<Netlist> designs;      ///< one per operand, for commands that load designs
  std::vector<SourceMap> lines;      ///< their source lines, for lenient loads
  std::set<std::string_view> given;  ///< names of the flags on the command line
};

/// A command's exit code and the document --metrics writes, rendered
/// (empty: the metrics-registry snapshot at the end of the run).
struct Outcome {
  int exit_code = 0;
  std::string metrics;
};

/// Builtin designs, which a design operand may name instead of a file.
constexpr std::pair<const char*, Netlist (*)()> kBuiltins[] = {
    {"fig1", [] { return make_fig1(); }},
    {"design1", [] { return make_design1(); }},
    {"design2", [] { return make_design2(); }},
};

/// A design operand: a builtin name, a .rtl RTL file or a .rtn netlist.
/// A lenient load skips the final validate(), so a cyclic design still
/// reaches lint's analyzer and sweep's pre-flight, and records the
/// source lines of a file's nets and cells.
Netlist resolve_design(const std::string& name, bool lenient, SourceMap* lines = nullptr) {
  for (const auto& [builtin, make] : kBuiltins) {
    if (name == builtin) return make();
  }
  if (name.ends_with(".rtl")) return parse_rtl_file(name, RtlParseOptions{!lenient}, lines);
  return load_netlist(name, NetlistReadOptions{!lenient}, lines);
}

/// The whole file: a regular file in one read of its size, anything
/// else (a pipe) in chunks.
std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw IoError("cannot open '" + path + "'");
  std::error_code not_regular;
  const std::uintmax_t size = std::filesystem::file_size(path, not_regular);
  std::string text(not_regular ? 0 : size, '\0');
  is.read(text.data(), static_cast<std::streamsize>(text.size()));
  text.resize(static_cast<std::size_t>(is.gcount()));
  char chunk[1 << 16];
  while (is.read(chunk, sizeof chunk), is.gcount() > 0) text.append(chunk, is.gcount());
  // A directory opens, then fails to read.
  if (is.bad()) throw IoError("cannot read '" + path + "'");
  return text;
}

/// Run `write` on the file at `path`, or on stdout for "-" where
/// `stdout_ok`. An unwritable path is an IoError (exit 1), like -o.
void write_output(const std::string& path, bool stdout_ok,
                  const std::function<void(std::ostream&)>& write) {
  OPISO_SPAN("obs.write");
  if (stdout_ok && path == "-") return write(std::cout);
  std::ofstream os(path);
  if (!os) throw IoError("cannot open '" + path + "' for writing");
  write(os);
  std::cerr << "wrote " << path << "\n";
}

/// A JSON artifact's text, as every command renders it.
std::string render(const obs::JsonValue& doc) {
  OPISO_SPAN("obs.report");
  return doc.dump(1);
}

// "-" writes the document to stdout (and nothing else: the "wrote ..."
// chatter stays on stderr-only paths so stdout is pipeable JSON).
void write_json_file(const std::string& path, const std::string& text) {
  write_output(path, true, [&text](std::ostream& os) {
    os.write(text.data(), static_cast<std::streamsize>(text.size()));
    os.put('\n');
  });
}

/// The netlist to -o FILE, else to stdout.
void emit(const Args& args, const Netlist& nl) {
  write_output(args.out_path.empty() ? "-" : args.out_path, args.out_path.empty(),
               [&nl](std::ostream& os) { write_netlist(os, nl); });
}

/// The artifact flags given "-" (stdout), in flag order.
std::vector<const char*> stdout_artifacts(const Args& args) {
  std::vector<const char*> flags;
  if (args.metrics_path == "-") flags.push_back("--metrics");
  if (args.metrics_prom_path == "-") flags.push_back("--metrics-prom");
  if (args.trace_power_path == "-") flags.push_back("--trace-power");
  return flags;
}

/// Every command's human-facing result stream: stderr whenever an
/// artifact targets "-", so stdout holds that artifact alone.
std::ostream& human_out(const Args& args) {
  return stdout_artifacts(args).empty() ? std::cout : std::cerr;
}

// Observability artifacts (after the command has run, so counters and
// spans cover the whole invocation).
void write_obs_artifacts(const Args& args, const std::string& metrics) {
  if (!args.metrics_path.empty()) {
    write_json_file(args.metrics_path,
                    metrics.empty() ? render(obs::metrics().snapshot()) : metrics);
  }
  if (!args.metrics_prom_path.empty()) {
    write_output(args.metrics_prom_path, true,
                 [](std::ostream& os) { obs::metrics().write_prometheus(os); });
  }
  if (!args.trace_path.empty()) {
    write_output(args.trace_path, false,
                 [](std::ostream& os) { obs::Tracer::instance().write_chrome_trace(os); });
  }
  if (!args.profile_path.empty()) {
    write_output(args.profile_path, false, [](std::ostream& os) {
      obs::write_folded(os, obs::build_profile_tree(obs::Tracer::instance().events()));
    });
  }
}

/// Options of the isolate-family commands. Every measurement round runs
/// opt.sim_lanes (--lanes, default 64) lanes of seed-1 lane streams, so
/// the flows need no single-stream factory.
IsolationOptions isolate_options(const Args& args) {
  IsolationOptions opt;
  opt.style = args.style;
  opt.sim_cycles = args.cycles;
  if (args.warmup) opt.warmup_cycles = *args.warmup;
  opt.omega_a = args.omega_a;
  opt.h_min = args.h_min;
  opt.slack_threshold_ns = args.slack_threshold;
  opt.bdd_node_budget = args.bdd_budget;
  opt.activation.register_lookahead = args.lookahead;
  opt.rewrite = args.rewrite;
  // Confidence collection defaults on for isolate-family commands;
  // --no-confidence disables it (plain sweeps enable it only when a
  // confidence flag is given, so throughput benches stay unchanged).
  opt.confidence.enabled = !args.no_confidence;
  opt.confidence.level = args.confidence_level;
  opt.confidence.batch_frames = args.batch_frames;
  opt.confidence.min_power_ci_halfwidth_mw = args.min_ci_halfwidth;
  if (args.lanes != 0) opt.sim_lanes = args.lanes;
  opt.lane_stimuli = [](unsigned lane) {
    return std::make_unique<UniformStimulus>(sweep_lane_seed(1, lane));
  };
  return opt;
}

// ---------------------------------------------------------------------------
// Commands. Each handler gets its operands already loaded as its
// kCommands row says.

Outcome run_stats(const Args& args, const Input& in) {
  human_out(args) << "design '" << in.designs[0].name() << "'\n"
                  << stats_to_string(compute_stats(in.designs[0]));
  return {};
}

Outcome run_dot(const Args& args, const Input& in) {
  write_dot(human_out(args), in.designs[0]);
  return {};
}

Outcome run_activation(const Args& args, const Input& in) {
  const Netlist& design = in.designs[0];
  ExprPool pool;
  NetVarMap vars;
  const ActivationAnalysis aa =
      derive_activation(design, pool, vars, isolate_options(args).activation);
  for (CellId id : design.cell_ids()) {
    const Cell& c = design.cell(id);
    if (!cell_kind_is_arith(c.kind)) continue;
    human_out(args) << c.name << ": AS = "
                    << activation_to_string(design, pool, vars, aa.activation_of(design, id))
                    << "\n";
  }
  return {};
}

Outcome run_power(const Args& args, const Input& in) {
  // One measurement round exactly as isolate takes its first one, so
  // this prints isolate's power_before_mw.
  const Netlist& design = in.designs[0];
  const ActivityStats stats = measure_activity(design, nullptr, nullptr, isolate_options(args));
  const PowerBreakdown pb = PowerEstimator().estimate(design, stats);
  human_out(args) << "total " << pb.total_mw << " mW (arith " << pb.arith_mw << ", steering "
                  << pb.steering_mw << ", sequential " << pb.sequential_mw << ", isolation "
                  << pb.isolation_mw << ")\n";
  return {};
}

Outcome run_isolate(const Args& args, const Input& in) {
  IsolationOptions opt = isolate_options(args);
  if (args.progress) {
    opt.on_iteration = [](const IterationLog& log) {
      std::cerr << "[opiso] iter " << log.iteration << ": power " << log.total_power_mw
                << " mW, pool " << log.pool_size << ", evaluated " << log.evaluations.size()
                << ", isolated " << log.num_isolated << "\n";
    };
  }
  const IsolationResult res = run_operand_isolation(in.designs[0], nullptr, opt);
  std::cerr << format_isolation_summary(res);
  Outcome out;
  if (!args.metrics_path.empty()) {
    // Rendered here, before -o is written, so the metrics snapshot
    // covers Algorithm 1 and nothing after it.
    OPISO_SPAN("obs.report");
    obs::JsonWriter report(1);
    obs::write_run_report(report, res, opt);
    out.metrics = report.take();
  }
  if (!args.out_path.empty()) emit(args, res.netlist);
  if (opt.confidence.enabled && !res.confidence_converged) {
    // The gate flags, never silently extends: the report (with
    // converged:false) is still written in full.
    std::cerr << "isolate: final power CI half-width exceeds --min-ci-halfwidth "
              << args.min_ci_halfwidth << " mW [confidence.under-converged]\n";
    out.exit_code = 3;
  }
  return out;
}

/// `opiso explain <run.json>` reads the run report alone: its
/// per-iteration candidate table, or with --candidate the Eq. 1-5
/// narrative of that candidate.
Outcome run_explain(const Args& args, const Input&) {
  const obs::JsonValue report = obs::JsonValue::parse(read_file(args.positional[0]));
  if (args.candidate.empty()) {
    obs::write_iteration_table(human_out(args), report);
    return {};
  }
  return {obs::write_candidate_narrative(human_out(args), report, args.candidate) ? 0 : 1, {}};
}

Outcome run_optimize(const Args& args, const Input& in) {
  std::map<std::string, std::uint64_t> fired;
  const Netlist o = optimize(in.designs[0], &fired);
  std::cerr << "cells " << in.designs[0].num_cells() << " -> " << o.num_cells();
  for (const auto& [rule, count] : fired) std::cerr << ", " << rule << ' ' << count;
  std::cerr << "\n";
  emit(args, o);
  return {};
}

Outcome run_rewrite(const Args& args, const Input& in) {
  const RewriteResult r = rewrite_datapath(in.designs[0]);
  if (r.rewritten) {
    std::cerr << "rewritten: cells " << r.cells_before << " -> " << r.cells_after << ", cost "
              << r.cost_before << " -> " << r.cost_after << " (" << r.verify_obligations
              << " equivalence obligations discharged)\n";
  } else {
    std::cerr << "unchanged: " << r.fallback_reason << "\n";
  }
  emit(args, r.netlist);
  return {0, render(rewrite_report_section(r))};
}

Outcome run_lower(const Args& args, const Input& in) {
  const GateLevelResult g = lower_to_gates(in.designs[0]);
  std::cerr << "lowered to " << g.netlist.num_cells() << " gate-level cells\n";
  emit(args, g.netlist);
  return {};
}

Outcome run_verify(const Args& args, const Input& in) {
  const EquivResult res = check_isolation_equivalence(in.designs[0], in.designs[1]);
  std::ostream& os = human_out(args);
  if (res.unsupported) {
    os << "UNSUPPORTED: " << res.reason << "\n";
    return {3, {}};
  }
  if (!res.equivalent) {
    os << "NOT EQUIVALENT: " << res.reason << "\n";
    return {1, {}};
  }
  os << "EQUIVALENT (" << res.obligations_checked << " obligations, " << res.bdd_nodes
     << " BDD nodes)\n";
  return {};
}

Outcome run_lint(const Args& args, const Input& in) {
  lint::LintOptions options;
  options.bdd.max_nodes = args.bdd_budget;
  options.overhead_slack_threshold_ns = args.slack_threshold;
  options.only_passes = args.only_passes;
  Outcome out;
  obs::JsonValue reports = obs::JsonValue::array();
  for (std::size_t i = 0; i < in.designs.size(); ++i) {
    const lint::LintReport report = lint::run_lint(in.designs[i], options, &in.lines[i]);
    lint::print_lint_text(human_out(args), report, args.positional[i]);
    if (report.fails(args.fail_on)) out.exit_code = 1;
    reports.push_back(lint::build_lint_report(report));
  }
  // One design -> the bare opiso.lint/v1 document; several -> a
  // wrapper carrying one document per design.
  if (reports.size() == 1) {
    out.metrics = render(reports.at(0));
  } else {
    obs::JsonValue doc = obs::JsonValue::object();
    doc["schema"] = "opiso.lint/v1";
    doc["reports"] = std::move(reports);
    out.metrics = render(doc);
  }
  return out;
}

/// The designs were loaded once up front only to fail fast on a bad
/// operand before any worker starts; every task loads its own copy.
Outcome run_sweep(const Args& args, const Input& in) {
  // One options block for every task; each task installs its own
  // seed's lane streams. Sweeps default to all compiled lanes
  // (throughput) and no warmup.
  SweepTask base;
  base.options = isolate_options(args);
  base.options.sim_lanes = args.lanes ? args.lanes : ParallelSimulator::kMaxLanes;
  base.options.warmup_cycles = args.warmup.value_or(0);
  // Confidence is opt-in for sweeps: any confidence flag turns it on, so
  // plain throughput sweeps keep their report shape.
  base.options.confidence.enabled =
      !args.no_confidence &&
      (in.given.contains("--confidence-level") || in.given.contains("--batch-frames") ||
       in.given.contains("--min-ci-halfwidth"));
  // --isolate: every task runs Algorithm 1 under its own seed instead
  // of a plain measurement.
  base.isolate = args.sweep_isolate;
  std::vector<SweepTask> tasks;
  for (const std::string& name : args.positional) {
    for (std::uint64_t seed = 1; seed <= args.seeds; ++seed) {
      SweepTask& t = tasks.emplace_back(base);
      t.design = name;
      t.make_design = [name] { return resolve_design(name, true); };
      t.seed = seed;
    }
  }
  if (args.inject_failure >= 0) {
    // Deliberate sabotage of one task so CI (and users) can watch the
    // fault-isolation machinery do its job on demand.
    const auto index = static_cast<std::size_t>(args.inject_failure);
    if (index >= tasks.size()) {
      usage("--inject-failure " + std::to_string(index) + " is out of range (" +
            std::to_string(tasks.size()) + " tasks)");
    }
    tasks[index].make_design = [index]() -> Netlist {
      throw Error(ErrCode::TaskFailed, "injected failure in task " + std::to_string(index));
    };
  }
  SweepRunner runner(args.threads);
  const auto t0 = std::chrono::steady_clock::now();
  SweepProgressFn progress;
  if (args.progress) {
    progress = [&tasks](const SweepProgress& p) {
      std::fprintf(stderr, "[opiso] sweep %zu/%zu: %s seed %llu done (%.1fs elapsed, eta %.1fs)\n",
                   p.completed, p.total, tasks[p.task_index].design.c_str(),
                   static_cast<unsigned long long>(tasks[p.task_index].seed), p.elapsed_sec,
                   p.eta_sec);
    };
  }
  SweepRunOptions options;
  options.fail_fast = args.fail_fast;
  options.budget.task_wall_clock_sec = args.task_budget_sec;
  options.budget.task_max_lane_cycles = args.task_max_lane_cycles;
  if (!args.no_prelint) {
    // Lint pre-flight: a design with error-severity findings never
    // reaches a simulator; the rejection lands in the report's
    // opiso.task_failures/v1 section under its lint.* code. Clean
    // designs add nothing to the report, so sweeps stay bitwise
    // identical with and without the pre-flight.
    options.preflight = [](const SweepTask& task, const Netlist& nl) {
      lint::throw_on_findings(lint::run_lint(nl), Severity::Error, task.design);
    };
  }
  const SweepOutcome outcome = runner.run(tasks, options, progress);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  std::uint64_t total_lane_cycles = 0;
  for (std::size_t i = 0; i < outcome.results.size(); ++i) {
    if (outcome.failed(i)) continue;
    const SweepResult& r = outcome.results[i];
    total_lane_cycles += r.lane_cycles;
    if (r.isolated_mode) {
      human_out(args) << r.design << " seed " << r.seed << ": isolated " << r.modules_isolated
                      << " module(s) in " << r.iterations << " iteration(s), "
                      << r.power_before_mw << " -> " << r.power_after_mw << " mW ("
                      << r.power_reduction_pct << "% saved, " << r.lane_cycles
                      << " lane-cycles)\n";
    } else {
      human_out(args) << r.design << " seed " << r.seed << ": toggles " << r.toggles
                      << ", power " << r.power_mw << " mW (" << r.lane_cycles
                      << " lane-cycles)\n";
    }
  }
  // Failures go to stderr: stdout and the report stay deterministic
  // so CI can diff runs across --threads values.
  for (const SweepTaskFailure& f : outcome.failures) {
    std::cerr << "sweep: task " << f.task_index << " (" << f.design << " seed " << f.seed
              << ") failed [" << f.code << "]: " << f.message << "\n";
    if (args.json_errors) {
      std::cerr << OpisoError(ErrCode::TaskFailed, f.message).json() << "\n";
    }
  }
  std::cerr << "sweep: " << tasks.size() << " tasks on " << runner.threads() << " threads, "
            << static_cast<std::uint64_t>(static_cast<double>(total_lane_cycles) /
                                          std::max(secs, 1e-9))
            << " lane-cycles/sec";
  if (!outcome.ok()) std::cerr << ", " << outcome.failures.size() << " failed";
  std::cerr << "\n";
  // Deterministic exit-code policy: a sweep that completed but recorded
  // task failures exits 3 (distinct from hard errors = 1, usage = 2).
  Outcome out{outcome.ok() ? 0 : 3, {}};
  if (!args.metrics_path.empty()) out.metrics = render(build_sweep_report(outcome));
  return out;
}

/// `opiso coverage <design>`: the coverage round run_operand_isolation's
/// final measure runs (measure_coverage), rendered as the standalone
/// opiso.coverage/v1 document — so a raw design's coverage matches the
/// section an isolate run would embed for it.
Outcome run_coverage(const Args& args, const Input& in) {
  const Netlist& design = in.designs[0];
  const obs::JsonValue doc = measure_coverage(design, isolate_options(args)).coverage;
  Outcome out{0, render(doc)};

  std::ostream& os = human_out(args);
  const double pct = doc.at("toggle_coverage_pct").as_number();
  os << "coverage: " << design.name() << ": " << doc.at("nets_toggled").as_uint64() << "/"
     << doc.at("nets_total").as_uint64() << " nets toggled (" << pct << "%) over "
     << doc.at("cycles").as_uint64() << " cycles\n";
  for (const obs::JsonValue& n : doc.at("never_toggled").elements()) {
    os << "  never toggled: " << n.as_string() << "\n";
  }
  for (const obs::JsonValue& c : doc.at("candidates").elements()) {
    os << "  candidate " << c.at("cell").as_string() << ": active "
       << c.at("active_cycles").as_uint64() << ", idle " << c.at("idle_cycles").as_uint64()
       << ", activation toggles " << c.at("activation_toggles").as_uint64() << ", Pr[AS] "
       << c.at("pr_active").as_number()
       << (c.at("exercised").as_bool() ? "" : "  [NOT exercised]") << "\n";
  }

  if (args.min_coverage_pct >= 0.0 && pct < args.min_coverage_pct) {
    std::cerr << "coverage: " << design.name() << " toggle coverage " << pct
              << "% is below the required " << args.min_coverage_pct << "%\n";
    out.exit_code = 1;
  }
  return out;
}

Outcome run_report_diff(const Args& args, const Input&) {
  // positional: ["diff", a.json, b.json]
  const std::string& a_path = args.positional[1];
  const std::string& b_path = args.positional[2];
  const obs::JsonValue a = obs::JsonValue::parse(read_file(a_path));
  const obs::JsonValue b = obs::JsonValue::parse(read_file(b_path));
  obs::ToleranceSpec spec;
  if (!args.tolerances_path.empty()) {
    spec = obs::ToleranceSpec::parse(obs::JsonValue::parse(read_file(args.tolerances_path)));
  }
  const std::vector<obs::DiffEntry> entries =
      obs::diff_reports(a, b, spec, obs::DiffOptions{.subset = args.subset});
  if (entries.empty()) {
    std::cerr << "reports match (" << a_path << " vs " << b_path << ")\n";
    return {};
  }
  std::cerr << a_path << " vs " << b_path << ": " << entries.size() << " difference(s)\n";
  obs::print_diff(human_out(args), entries);
  return {1, {}};
}

struct WaveCapture {
  CycleTrace trace;
  PowerTrace power;
  double mw;  ///< the aggregate estimate of the same cycles
};

/// Trace one measurement round of the isolate discipline
/// (measure_activity on the isolate options' lanes), so the captured
/// waveform integrates to the same power the isolate command reports.
/// The sink attaches after warmup: the trace covers exactly the cycles
/// the round's statistics cover, and those price the round.
WaveCapture capture_wave(const Netlist& nl, const IsolationOptions& opt, std::uint64_t window,
                         bool record_values) {
  CycleTrace trace(window, record_values);
  const ActivityStats stats = measure_activity(nl, nullptr, nullptr, opt, nullptr, &trace);
  PowerTrace power = compute_power_trace(nl, trace, opt.power);
  const double mw = PowerEstimator(opt.power).estimate(nl, stats).total_mw;
  return {std::move(trace), std::move(power), mw};
}

Outcome run_wave(const Args& args, const Input& in) {
  const Netlist& design = in.designs[0];
  const IsolationOptions opt = isolate_options(args);
  std::ostream& out = human_out(args);

  // orig.mw is bit-for-bit the power the isolate command would report
  // as power_before_mw: same toggles, same cycle count, same estimator.
  const WaveCapture orig = capture_wave(design, opt, args.window, !args.vcd_path.empty());

  if (!args.vcd_path.empty()) {
    write_output(args.vcd_path, false,
                 [&](std::ostream& os) { obs::write_vcd(os, design, orig.trace, &orig.power); });
  }

  out << "wave: " << design.name() << " (" << orig.power.lanes
      << (orig.power.lanes == 1 ? " lane): " : " lanes): ") << orig.power.lane_cycles()
      << " lane-cycles in " << orig.power.num_samples() << " sample(s) (window " << args.window
      << "), total " << orig.power.total_energy_fj << " fJ, " << orig.mw << " mW\n";

  if (!args.compare_isolated) {
    obs::write_heatmap_table(out, design, orig.power);
    if (!args.trace_power_path.empty()) {
      obs::JsonValue doc = obs::build_power_trace_section(design, orig.power, design.name());
      doc["estimator_total_mw"] = orig.mw;
      write_json_file(args.trace_power_path, render(doc));
    }
    return {};
  }

  // --compare-isolated: run Algorithm 1, retrace the transformed design
  // under the identical discipline, and overlay the two waveforms.
  const IsolationResult res = run_operand_isolation(design, nullptr, opt);
  const WaveCapture iso = capture_wave(res.netlist, opt, args.window, false);

  obs::JsonValue doc = obs::build_wave_compare(design, orig.power, res.netlist, iso.power,
                                               res.records, design.name());
  doc["original_power_mw"] = orig.mw;
  doc["isolated_power_mw"] = iso.mw;
  doc["isolate_power_before_mw"] = res.power_before_mw;
  doc["isolate_power_after_mw"] = res.power_after_mw;

  out << "wave: isolated " << res.records.size() << " module(s); " << res.power_before_mw
      << " -> " << res.power_after_mw << " mW (" << res.power_reduction_pct() << "% saved)\n";
  for (const obs::JsonValue& iv : doc.at("idle_intervals").elements()) {
    out << "  " << iv.at("name").as_string() << ": reclaimed " << iv.at("reclaimed_fj").as_int64()
        << " fJ over " << iv.at("samples").as_uint64() << " sample(s)\n";
  }
  out << "  reclaimed " << doc.at("reclaimed_total_fj").as_int64() << " fJ total ("
      << doc.at("reclaimed_in_intervals_fj").as_int64() << " fJ in "
      << doc.at("idle_intervals").size() << " idle interval(s))\n";

  if (!args.trace_power_path.empty()) write_json_file(args.trace_power_path, render(doc));
  return {};
}

Outcome run_vcd_check(const Args& args, const Input&) {
  const obs::VcdDocument doc = obs::parse_vcd(read_file(args.positional[0]));
  std::cerr << "vcd-check: " << args.positional[0] << ": ok (" << doc.vars.size() << " vars, "
            << doc.num_timestamps << " timestamps, " << doc.num_changes << " changes)\n";
  return {};
}

// ---------------------------------------------------------------------------
// The tables.

enum class Load { None, Strict, Lenient };

struct Command {
  const char* name;
  const char* operands;  ///< `<x>` one operand, a trailing `<x>...` one or more, a word itself
  Load load;             ///< how design operands load (None: operands are not designs)
  Outcome (*run)(const Args&, const Input&);
  const char* help;
};

constexpr Command kCommands[] = {
    {"stats", "<design>", Load::Strict, run_stats, "netlist statistics"},
    {"dot", "<design>", Load::Strict, run_dot, "GraphViz dump to stdout"},
    {"activation", "<design>", Load::Strict, run_activation,
     "derived activation signal of each arithmetic module"},
    {"power", "<design>", Load::Strict, run_power,
     "power estimate, equal to isolate's power_before_mw"},
    {"isolate", "<design>", Load::Strict, run_isolate,
     "run Algorithm 1 (JSON report: opiso.run_report/v1)"},
    {"explain", "<run.json>", Load::None, run_explain,
     "candidate table, or one candidate's Eq. 1-5 narrative, of a run report"},
    {"optimize", "<design>", Load::Strict, run_optimize, "optimization passes"},
    {"rewrite", "<design>", Load::Strict, run_rewrite,
     "equality-saturation rewrite, proven equivalent or unchanged"},
    {"lower", "<design>", Load::Strict, run_lower, "gate-level expansion"},
    {"verify", "<original> <transformed>", Load::Strict, run_verify,
     "BDD equivalence proof (exit 1 when not equivalent, 3 on latch designs)"},
    {"lint", "<design>...", Load::Lenient, run_lint,
     "pass-based static analysis (JSON report: opiso.lint/v1)"},
    {"sweep", "<design>...", Load::Lenient, run_sweep,
     "fault-isolated multithreaded simulation sweep"},
    {"coverage", "<design>", Load::Strict, run_coverage,
     "stimulus coverage of nets and activation signals"},
    {"report", "diff <a.json> <b.json>", Load::None, run_report_diff,
     "tolerance-aware structural report diff (exit 1 on divergence)"},
    {"wave", "<design>", Load::Strict, run_wave,
     "per-cycle power waveform and toggle/energy heatmap"},
    {"vcd-check", "<file.vcd>", Load::None, run_vcd_check,
     "parse and validate a VCD file (exit 1 when malformed)"},
};

template <typename Row, std::size_t N>
constexpr const Row* find_row(const Row (&rows)[N], std::string_view name) {
  const Row* row = std::find_if(rows, rows + N, [name](const Row& r) { return name == r.name; });
  return row == rows + N ? nullptr : row;
}

/// Bit i stands for kCommands[i].
constexpr std::uint32_t command_bit(const Command& cmd) { return 1u << (&cmd - kCommands); }

/// The bits of the space-separated command names; an unknown name does
/// not compile.
consteval std::uint32_t commands(std::string_view names) {
  std::uint32_t bits = 0;
  for (std::size_t end = 0; !names.empty(); names.remove_prefix(std::min(end + 1, names.size()))) {
    end = std::min(names.find(' '), names.size());
    const Command* cmd = find_row(kCommands, names.substr(0, end));
    if (cmd == nullptr) throw "unknown command";
    bits |= command_bit(*cmd);
  }
  return bits;
}

// Marker bits above the command bits: kAlgorithm1 marks the flags only
// run_operand_isolation reads, kRunsAlgorithm1 the switch that makes
// sweep or wave run it. A command that takes such a switch takes the
// kAlgorithm1 flags only together with it.
constexpr std::uint32_t kAlgorithm1 = 1u << 31;
constexpr std::uint32_t kRunsAlgorithm1 = 1u << 30;

// Command families, named by the code that reads their shared flags.
constexpr std::uint32_t kMeasures = commands("power isolate wave coverage sweep");
constexpr std::uint32_t kIsolates = commands("isolate wave sweep") | kAlgorithm1;
constexpr std::uint32_t kConfidence = commands("isolate sweep");  // in the run report
constexpr std::uint32_t kNetlistOnStdout = commands("optimize rewrite lower");  // without -o
constexpr std::uint32_t kEvery = (1u << std::size(kCommands)) - 1;

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
constexpr double kRealMax = std::numeric_limits<double>::max();

constexpr Option kOptions[] = {
    {"-o", set_text<&Args::out_path>, "FILE", commands("isolate optimize rewrite lower"),
     "write the netlist to FILE (optimize, rewrite, lower: else stdout)"},
    {"--style", set_choice<&Args::style>, "and|or|latch", kIsolates,
     "isolation bank style (default: and)"},
    {"--cycles", set_number<&Args::cycles, std::uint64_t{1}, kU64Max>, "N", kMeasures,
     "simulated cycles per round, summed over the lanes (default: 8192)"},
    {"--lanes", set_number<&Args::lanes, 1u, ParallelSimulator::kMaxLanes>, "N", kMeasures,
     "stimulus lanes (default: 64; sweep: the compiled plane width)"},
    {"--warmup", set_number<&Args::warmup, std::uint64_t{0}, kU64Max>, "N", kMeasures,
     "discarded cycles, summed over the lanes (default: 32; sweep: 0)"},
    {"--omega-a", set_number<&Args::omega_a, 0.0, kRealMax>, "X", kIsolates,
     "area weight in the cost function (default: 0.2)"},
    {"--h-min", set_number<&Args::h_min, -kRealMax, kRealMax>, "X", kIsolates,
     "minimum cost value to isolate (default: 0)"},
    {"--slack-threshold", set_number<&Args::slack_threshold, -kRealMax, kRealMax>, "NS",
     kIsolates | commands("lint"),
     "reject candidates (lint: flag banks) below this slack (default: 0)"},
    {"--lookahead", set_switch<&Args::lookahead>, nullptr,
     kIsolates | commands("activation coverage"), "register-lookahead activation derivation"},
    {"--bdd-budget", set_number<&Args::bdd_budget, std::size_t{0}, ~std::size_t{0}>, "N",
     kIsolates | commands("lint"),
     "BDD node budget of activation simplification and proofs (0 = none)"},
    {"--rewrite", set_switch<&Args::rewrite>, nullptr, kIsolates,
     "rewrite the datapath before isolating (adds opiso.rewrite/v1)"},
    {"--confidence-level", set_confidence_level, "P", kConfidence,
     "batch-means confidence level (default: 0.95)"},
    {"--batch-frames", set_number<&Args::batch_frames, std::uint32_t{1}, ~std::uint32_t{0}>,
     "N", kConfidence, "frames per batch-means window (default: 16)"},
    {"--min-ci-halfwidth", set_number<&Args::min_ci_halfwidth, 0.0, kRealMax>, "MW",
     kConfidence, "flag (exit 3; sweep: fail the task) a wider final power CI"},
    {"--no-confidence", set_switch<&Args::no_confidence>, nullptr, kConfidence,
     "skip confidence collection (sweep: off unless a flag above is given)"},
    {"--candidate", set_text<&Args::candidate>, "NAME", commands("explain"),
     "narrate this candidate instead of printing the table"},
    {"--seeds", set_number<&Args::seeds, std::uint64_t{1}, std::uint64_t{1} << 16>, "N",
     commands("sweep"), "stimulus seeds per design (default: 4)"},
    {"--threads", set_number<&Args::threads, 0u, 1024u>, "N", commands("sweep"),
     "worker threads, 0 = hardware (default: 0)"},
    {"--isolate", set_switch<&Args::sweep_isolate>, nullptr, commands("sweep") | kRunsAlgorithm1,
     "run Algorithm 1 per task (rows gain power_before/after_mw)"},
    {"--no-prelint", set_switch<&Args::no_prelint>, nullptr, commands("sweep"),
     "skip the per-task lint pre-flight"},
    {"--fail-fast", set_switch<&Args::fail_fast>, nullptr, commands("sweep"),
     "stop launching tasks after the first failure"},
    {"--task-budget-sec", set_number<&Args::task_budget_sec, 0.0, kRealMax>, "S",
     commands("sweep"), "per-task wall-clock budget (default: off)"},
    {"--task-max-lane-cycles", set_number<&Args::task_max_lane_cycles, std::uint64_t{0}, kU64Max>,
     "N", commands("sweep"), "per-task stimulus budget (default: off)"},
    {"--inject-failure",
     set_number<&Args::inject_failure, std::int64_t{0}, std::numeric_limits<std::int64_t>::max()>,
     "N", commands("sweep"), "make task N fail (fault-isolation drill)"},
    {"--fail-on", set_choice<&Args::fail_on>, "warning|error", commands("lint"),
     "lowest finding severity that fails the run (default: error)"},
    {"--pass", add_lint_pass, "NAME", commands("lint"), "run only the named pass (repeatable)"},
    {"--min-coverage-pct", set_number<&Args::min_coverage_pct, 0.0, 100.0>, "P",
     commands("coverage"), "exit 1 when net toggle coverage is below P"},
    {"--tolerances", set_text<&Args::tolerances_path>, "FILE", commands("report"),
     "opiso.report_tolerances/v1 rule file"},
    {"--subset", set_switch<&Args::subset>, nullptr, commands("report"),
     "A is an expected subset of B"},
    {"--trace-power", set_text<&Args::trace_power_path>, "FILE", commands("wave"),
     "write opiso.power_trace/v1 (or wave_compare/v1); '-' = stdout"},
    {"--vcd", set_text<&Args::vcd_path>, "FILE", commands("wave"),
     "write a VCD: lane 0's nets, per-cell energy/toggles of all lanes"},
    {"--window", set_number<&Args::window, std::uint64_t{1}, kU64Max>, "N", commands("wave"),
     "macro-cycles per waveform sample (default: 1)"},
    {"--compare-isolated", set_switch<&Args::compare_isolated>, nullptr,
     commands("wave") | kRunsAlgorithm1, "run Algorithm 1 and overlay the isolated waveform"},
    {"--metrics", set_text<&Args::metrics_path>, "FILE", kEvery,
     "write the command's JSON report, else a metrics snapshot; '-' = stdout"},
    {"--metrics-prom", set_text<&Args::metrics_prom_path>, "FILE", kEvery,
     "write the metrics registry in Prometheus text format; '-' = stdout"},
    {"--trace", set_text<&Args::trace_path>, "FILE", kEvery,
     "write a Chrome-trace JSON timeline of the run"},
    {"--profile", set_text<&Args::profile_path>, "FILE", kEvery,
     "write a collapsed-stack span profile (flamegraph input)"},
    {"--progress", set_switch<&Args::progress>, nullptr, kEvery,
     "per-iteration (isolate) or per-task (sweep) lines on stderr"},
    {"--json-errors", set_switch<&Args::json_errors>, nullptr, kEvery,
     "also print failures as one-line JSON diagnostics on stderr"},
};

/// The kRunsAlgorithm1 switch `cmd` takes, or nullptr.
const char* algorithm1_switch(const Command& cmd) {
  for (const Option& o : kOptions) {
    if ((o.commands & kRunsAlgorithm1) && (o.commands & command_bit(cmd))) return o.name;
  }
  return nullptr;
}

void usage(const std::string& error) {
  std::ostream& os = std::cerr;
  const auto row = [&os](const std::string& head, const char* help) {
    os << "  " << head << std::string(head.size() < 32 ? 34 - head.size() : 2, ' ') << help << '\n';
  };
  os << "usage: opiso <command> <operands> [flags]\n\n"
        "commands, each with the flags it takes besides the common ones:\n";
  for (const Command& c : kCommands) {
    row(std::string(c.name) + " " + c.operands, c.help);
    // A command with an Algorithm-1 switch lists the kAlgorithm1 flags
    // last, after "with SWITCH:".
    const char* gate = algorithm1_switch(c);
    for (const bool gated : {false, true}) {
      std::string line = gated && gate ? std::string(" with ") + gate + ":" : "";
      for (const Option& o : kOptions) {
        if (o.commands == kEvery || !(o.commands & command_bit(c))) continue;
        if (gated != (gate && (o.commands & kAlgorithm1))) continue;
        if (line.size() + std::strlen(o.name) > 72) {
          os << "     " << line << "\n";
          line.clear();
        }
        (line += ' ') += o.name;
      }
      if (!line.empty()) os << "     " << line << "\n";
    }
  }
  for (const bool common : {false, true}) {
    os << (common ? "\ncommon flags (every command):\n" : "\nflags:\n");
    for (const Option& o : kOptions) {
      if ((o.commands == kEvery) != common) continue;
      row(o.value ? std::string(o.name) + " " + o.value : o.name, o.help);
    }
  }
  os << "\nA <design> is a builtin (";
  for (const auto& builtin : kBuiltins) os << (&builtin == kBuiltins ? "" : ", ") << builtin.first;
  os << "), a .rtl RTL file or a .rtn netlist.\n--pass NAME is one of:";
  for (const auto& pass : lint::builtin_passes()) os << ' ' << pass->name();
  os << ".\n\n"
        "exit codes: 0 success; 1 failure (error, verify mismatch, report divergence,\n"
        "lint findings at --fail-on, coverage below --min-coverage-pct, candidate never\n"
        "evaluated); 2 usage; 3 completed but flagged (sweep task failures, isolate\n"
        "over --min-ci-halfwidth, verify of a design it cannot model), with every report\n"
        "still written.\n";
  if (!error.empty()) os << "\nopiso: " << error << "\n";
  std::exit(2);
}

/// Check the operands against the command's operand list.
void check_operands(const Command& cmd, const std::vector<std::string>& ops) {
  const std::string expects = std::string(cmd.name) + " expects " + cmd.operands;
  std::istringstream spec(cmd.operands);
  std::size_t i = 0;
  for (std::string want; spec >> want; ++i) {
    if (i == ops.size()) usage(expects);
    if (want.ends_with("...")) return;
    if (want[0] != '<' && ops[i] != want) usage(expects + ", got '" + ops[i] + "'");
  }
  if (i < ops.size()) usage(expects + "; unexpected operand '" + ops[i] + "'");
}

/// Parse argv[2..] for `cmd`: each flag through its kOptions row, the
/// rest as operands. Returns the names of the flags given.
std::set<std::string_view> parse_args(const Command& cmd, int argc, char** argv, Args& args) {
  std::set<std::string_view> given;
  const char* algorithm1_flag = nullptr;  // the first kAlgorithm1 flag given
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.empty() || a[0] != '-') {
      args.positional.push_back(a);
      continue;
    }
    const Option* opt = find_row(kOptions, a);
    if (!opt) usage("unknown flag " + a);
    if (!(opt->commands & command_bit(cmd))) usage(std::string(cmd.name) + " does not take " + a);
    if (opt->value && ++i == argc) usage(a + " needs a value");
    opt->set(*opt, args, opt->value ? argv[i] : "");
    given.insert(opt->name);
    if ((opt->commands & kAlgorithm1) && !algorithm1_flag) algorithm1_flag = opt->name;
  }
  if (const char* gate = algorithm1_switch(cmd); gate && algorithm1_flag && !given.contains(gate)) {
    usage(std::string(cmd.name) + " takes " + algorithm1_flag + " only with " + gate);
  }
  check_operands(cmd, args.positional);
  return given;
}

int run(int argc, char** argv) {
  if (argc < 2) usage();
  const Command* cmd = find_row(kCommands, argv[1]);
  if (!cmd) usage("unknown command " + std::string(argv[1]));
  Args args;
  Input in;
  in.given = parse_args(*cmd, argc, argv, args);
  // Stdout holds one document: the netlist or one artifact.
  const std::vector<const char*> on_stdout = stdout_artifacts(args);
  if (on_stdout.size() > 1) {
    usage(std::string(on_stdout[0]) + " - and " + on_stdout[1] + " - both write to stdout");
  }
  if (!on_stdout.empty() && args.out_path.empty() && (command_bit(*cmd) & kNetlistOnStdout)) {
    usage(std::string(cmd->name) + " writes the netlist to stdout without -o, and " +
          on_stdout[0] + " - writes there too");
  }
  obs::Tracer::instance().set_enabled(!args.trace_path.empty() || !args.profile_path.empty());
  if (cmd->load != Load::None) {
    OPISO_SPAN("frontend.parse");
    const bool lenient = cmd->load == Load::Lenient;
    for (const std::string& name : args.positional) {
      SourceMap* lines = lenient ? &in.lines.emplace_back() : nullptr;
      in.designs.push_back(resolve_design(name, lenient, lines));
    }
  }
  const Outcome out = cmd->run(args, in);
  write_obs_artifacts(args, out.metrics);
  return out.exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  // --json-errors must work even when parse_args itself throws, so scan
  // for it up front.
  const bool json_errors = std::any_of(
      argv + 1, argv + argc, [](const char* a) { return std::strcmp(a, "--json-errors") == 0; });
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    // Anything but an OpisoError is a bug: it reports as internal.
    const auto* known = dynamic_cast<const opiso::OpisoError*>(&e);
    const opiso::OpisoError error =
        known ? *known : opiso::OpisoError(opiso::ErrCode::Internal, e.what());
    std::cerr << "error[" << error.code_name() << "]: " << error.what() << "\n";
    if (json_errors) std::cerr << error.json() << "\n";
    return 1;
  }
}
