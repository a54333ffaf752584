// opiso — command-line front door to the library.
//
//   opiso stats    <design>                     netlist statistics
//   opiso dot      <design>                     GraphViz dump to stdout
//   opiso activation <design> [--lookahead]     derived activation signals
//   opiso power    <design> [--cycles N]        power estimate (uniform stimuli)
//   opiso isolate  <design> [options] [-o out.rtn]   run Algorithm 1
//       --style and|or|latch   --cycles N   --omega-a X   --h-min X
//       --slack-threshold NS   --lookahead  --report
//   opiso explain  <design> --candidate NAME    per-candidate Eq. 1-5
//       decision narrative from the power-attribution ledger
//   opiso optimize <design> [-o out.rtn]        optimization passes
//   opiso rewrite  <design> [-o out.rtn]        equality-saturation datapath
//       rewrite (isolation-aware extraction, verify::equiv-gated)
//   opiso lower    <design> [-o out.rtn]        gate-level expansion
//   opiso verify   <original> <transformed>     BDD equivalence proof
//   opiso lint     <design...> [options]        static analysis (pass-based)
//       --fail-on error|warning   --bdd-budget N   --slack-threshold NS
//   opiso sweep    <design...> [options]        multithreaded simulation sweep
//       --seeds N   --cycles N   --lanes N   --threads N
//       --no-prelint (skip the per-task lint pre-flight)
//   opiso coverage <design> [options]           stimulus-coverage report
//       --min-coverage-pct P (the CI gate)  --metrics out.json
//   opiso report diff <a.json> <b.json>         tolerance-aware report diff
//       [--tolerances FILE] [--subset]          exit 0 match, 1 diff, 2 usage
//   opiso wave     <design> [options]           per-cycle power waveform
//       --vcd out.vcd  --trace-power out.json  --window N  --compare-isolated
//   opiso vcd-check <file.vcd>                  VCD round-trip validation
//
// Observability (any command): --trace FILE (Chrome-trace JSON),
// --metrics FILE (metrics snapshot; for isolate: the full run report),
// --profile FILE (collapsed-stack span profile for flamegraphs),
// --progress (per-iteration / per-sweep-task one-liners on stderr).
//
// <design> is a .rtn structural netlist or a .rtl RTL-language file
// (chosen by extension).

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#include "baseline/control_signal_gating.hpp"
#include "designs/designs.hpp"
#include "frontend/rtl_parser.hpp"
#include "isolation/candidates.hpp"
#include "isolation/report.hpp"
#include "isolation/savings.hpp"
#include "lint/lint.hpp"
#include "lower/gate_level.hpp"
#include "netlist/stats.hpp"
#include "netlist/text_io.hpp"
#include "netlist/traversal.hpp"
#include "obs/attribution.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/report_diff.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"
#include "obs/vcd.hpp"
#include "obs/wave.hpp"
#include "opt/passes.hpp"
#include "opt/rewrite_rules.hpp"
#include "power/estimator.hpp"
#include "power/power_trace.hpp"
#include "sim/cycle_trace.hpp"
#include "sim/parallel_sim.hpp"
#include "sim/sweep.hpp"
#include "verify/equiv.hpp"

namespace {

using namespace opiso;

/// Print the usage text, then `error` (if any) as its last line where
/// it stays visible, and exit 2.
[[noreturn]] void usage(const std::string& error = {}) {
  std::cerr <<
      "usage: opiso <command> <design.rtn|design.rtl> [options]\n"
      "\n"
      "commands:\n"
      "  stats      <design>                  netlist statistics\n"
      "  dot        <design>                  GraphViz dump to stdout\n"
      "  activation <design> [--lookahead]    derived activation signals\n"
      "  power      <design> [--cycles N]     power estimate: one isolate-style\n"
      "      measurement round, so it prints isolate's power_before_mw\n"
      "  isolate    <design> [-o out.rtn]     run Algorithm 1:\n"
      "      --style and|or|latch   isolation bank style (default: and)\n"
      "      --cycles N             simulated cycles per iteration (default: 8192)\n"
      "      --omega-a X            area weight in the cost function (default: 0.2)\n"
      "      --h-min X              minimum cost value to isolate (default: 0)\n"
      "      --slack-threshold NS   reject candidates estimated below this slack\n"
      "      --lookahead            register-lookahead activation derivation\n"
      "      --report               print the per-iteration candidate log\n"
      "      --bdd-budget N         BDD node budget for activation-function\n"
      "                             simplification; over-budget functions keep\n"
      "                             their structural form (0 = unlimited)\n"
      "      --confidence-level P   batch-means confidence level (default 0.95);\n"
      "                             the run report gains opiso.confidence/v1 and\n"
      "                             opiso.coverage/v1 sections (on by default;\n"
      "                             --no-confidence disables the collection)\n"
      "      --batch-frames N       frames per batch-means window (default 16)\n"
      "      --min-ci-halfwidth MW  flag the run (exit 3, converged:false in the\n"
      "                             report) when the final power CI half-width\n"
      "                             exceeds MW — never silently extends the run\n"
      "      --rewrite              rewrite the datapath (equality saturation,\n"
      "                             isolation-aware extraction) before isolating;\n"
      "                             the run report gains an opiso.rewrite/v1\n"
      "                             section\n"
      "  explain    <design> --candidate NAME run Algorithm 1, then print the\n"
      "      Eq. 1-5 decision narrative for one candidate from the power-\n"
      "      attribution ledger (accepts the isolate options; exits 1 if the\n"
      "      candidate was never evaluated)\n"
      "  optimize   <design> [-o out.rtn]     optimization passes\n"
      "  rewrite    <design> [-o out.rtn]     equality-saturation datapath\n"
      "      rewrite with isolation-aware extraction; every emitted netlist is\n"
      "      proven equivalent (verify::equiv) or the input passes through\n"
      "      unchanged; --metrics FILE writes the opiso.rewrite/v1 section\n"
      "  lower      <design> [-o out.rtn]     gate-level expansion\n"
      "  verify     <original> <transformed>  BDD equivalence proof\n"
      "  lint       <design...>               static analysis; passes: comb_loop,\n"
      "      width, drivers, dead_logic, isolation_soundness, isolation_overhead;\n"
      "      findings carry stable lint.* codes (lint.comb_loop, lint.width,\n"
      "      lint.undriven, lint.multi_driven, lint.dangling, lint.dead_logic,\n"
      "      lint.isolation_unsound, lint.isolation_unproven,\n"
      "      lint.isolation_overhead)\n"
      "      --fail-on error|warning  lowest severity that fails the run\n"
      "                             (default: error; exit 1 when any finding\n"
      "                             is at or above it)\n"
      "      --pass NAME            run only the named pass (repeatable)\n"
      "      --bdd-budget N         node budget for the soundness proofs;\n"
      "                             over-budget proofs degrade to\n"
      "                             lint.isolation_unproven warnings\n"
      "      --slack-threshold NS   isolation_overhead flags bank outputs\n"
      "                             below this slack (default: 0)\n"
      "      --metrics FILE writes the opiso.lint/v1 report\n"
      "  sweep      <design...>               multithreaded simulation sweep:\n"
      "      --seeds N              stimulus seeds per design (default: 4)\n"
      "      --cycles N             total cycles per task, split across lanes\n"
      "      --lanes N              bit-parallel lanes, up to the compiled\n"
      "                             plane width (256, or 512 with AVX-512);\n"
      "                             default: the full width\n"
      "      --threads N            worker threads, 0 = hardware (default: 0)\n"
      "      --warmup N             per-lane warmup cycles (default: 0)\n"
      "      --task-budget-sec S    per-task wall-clock budget (default: off)\n"
      "      --task-max-lane-cycles N  per-task stimulus budget (default: off)\n"
      "      --fail-fast            stop launching tasks after the first failure\n"
      "      --inject-failure N     make task N throw (fault-isolation testing)\n"
      "      --no-prelint           skip the per-task lint pre-flight (rejected\n"
      "                             designs are otherwise recorded in the\n"
      "                             report's opiso.task_failures/v1 section\n"
      "                             under their lint.* code)\n"
      "      --isolate              run Algorithm 1 per task (accepts the\n"
      "                             isolate options); report rows gain\n"
      "                             power_before/after_mw, power_reduction_pct,\n"
      "                             iterations and modules_isolated\n"
      "      --confidence-level P / --batch-frames N / --min-ci-halfwidth MW\n"
      "                             collect batch-means confidence per task:\n"
      "                             rows gain opiso.confidence/v1 and\n"
      "                             opiso.coverage/v1 sections (bitwise identical\n"
      "                             across --threads and plane widths);\n"
      "                             an under-converged task fails with\n"
      "                             confidence.under-converged in the\n"
      "                             opiso.task_failures/v1 section (exit 3)\n"
      "      designs are builtin names (fig1, design1, design2) or files;\n"
      "      --metrics FILE writes the deterministic sweep report — it is\n"
      "      bitwise identical for any --threads value;\n"
      "      --progress prints one line per completed task with an ETA;\n"
      "      sweeps are fault-isolated: a throwing or over-budget task is\n"
      "      recorded in the report's opiso.task_failures/v1 section while\n"
      "      the remaining tasks complete (exit code 3)\n"
      "  coverage   <design>                  stimulus-coverage report: net\n"
      "      toggle coverage, never-toggled nets, and per-candidate activation-\n"
      "      signal exercise counts under the isolate measurement discipline\n"
      "      (accepts --cycles/--warmup/--lanes/--lookahead; --warmup 0\n"
      "      measures from the reset state);\n"
      "      --metrics FILE writes the opiso.coverage/v1 document\n"
      "      --min-coverage-pct P   exit 1 when net toggle coverage is below P\n"
      "                             (the CI coverage gate)\n"
      "  report diff <a.json> <b.json>        structural report diff:\n"
      "      --tolerances FILE      opiso.report_tolerances/v1 rule file\n"
      "      --subset               A is an expected subset of B\n"
      "      exits 0 when the reports match, 1 with a per-field listing\n"
      "      when they diverge beyond tolerance, 2 on usage errors\n"
      "  wave       <design>                  per-cycle power waveform (same\n"
      "      measurement discipline as isolate, so totals match its\n"
      "      power_before/after exactly); prints the toggle/energy heatmap:\n"
      "      --trace-power FILE     write the opiso.power_trace/v1 waveform\n"
      "                             (or opiso.wave_compare/v1 with\n"
      "                             --compare-isolated); FILE '-' = stdout\n"
      "      --vcd FILE             write an IEEE-1364 VCD of lane 0's net\n"
      "                             values plus per-cell energy/toggle signals\n"
      "                             summed over all lanes\n"
      "      --window N             fold N macro-cycles (one step of all\n"
      "                             lanes) per waveform sample\n"
      "                             (default 1; sums stay exact)\n"
      "      --compare-isolated     run Algorithm 1, overlay the original and\n"
      "                             isolated waveforms, and list the idle\n"
      "                             intervals exploited with the energy\n"
      "                             reclaimed in each\n"
      "      also accepts the isolate options (--cycles/--style/--lanes/...)\n"
      "  vcd-check  <file.vcd>                parse and validate a VCD file\n"
      "      (round-trip gate for the wave exporter; exit 1 on malformed VCD)\n"
      "\n"
      "power, isolate, explain, wave and coverage measure on the bit-parallel\n"
      "engine with --lanes N stimulus lanes (default 64, keeping measured\n"
      "statistics independent of the compiled plane width); --cycles counts\n"
      "cycles summed over the lanes.\n"
      "\n"
      "observability (any command):\n"
      "  --trace FILE     write a Chrome-trace JSON timeline of the run\n"
      "  --metrics-prom FILE  write the metrics registry in Prometheus text\n"
      "                   exposition format (counters/gauges/histograms with\n"
      "                   cumulative power-of-two buckets); FILE '-' = stdout;\n"
      "                   the JSON outputs are unchanged\n"
      "  --metrics FILE   write a metrics JSON snapshot; FILE '-' = stdout\n"
      "                   (human output moves to stderr so stdout stays\n"
      "                   one pipeable JSON document)\n"
      "                   (isolate: the full run report with per-iteration tables)\n"
      "  --profile FILE   write a collapsed-stack span profile (flamegraph.pl /\n"
      "                   speedscope input; implies tracing for the run)\n"
      "  --progress       per-iteration (isolate) or per-task (sweep)\n"
      "                   one-liners on stderr\n"
      "  --json-errors    also print failures as one-line JSON diagnostics\n"
      "                   ({\"error\":{\"code\":...,\"severity\":...,...}}) on stderr\n"
      "\n"
      "exit codes: 0 success; 1 command failure (error, verify mismatch,\n"
      "report divergence, lint findings at or above --fail-on severity);\n"
      "2 usage; 3 completed-but-flagged (sweep recorded task failures, or\n"
      "isolate missed --min-ci-halfwidth); the report is still written in\n"
      "full.\n"
      "\n"
      "<design> is a .rtn structural netlist or a .rtl RTL-language file\n"
      "(chosen by extension).\n";
  if (!error.empty()) std::cerr << "\nopiso: " << error << "\n";
  std::exit(2);
}

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

Netlist load_design(const std::string& path) {
  if (path.size() > 4 && path.substr(path.size() - 4) == ".rtl") return parse_rtl_file(path);
  return load_netlist(path);
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
  bool report = false;
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
  bool confidence_flags = false;  ///< any --confidence-*/--min-ci-halfwidth/--batch-frames seen
  double min_ci_halfwidth = -1.0;
  std::uint32_t batch_frames = 16;
  bool no_confidence = false;
  double min_coverage_pct = -1.0;
  std::string metrics_prom_path;
  bool rewrite = false;
};

Args parse_args(int argc, char** argv) {
  constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
  constexpr double kRealMax = std::numeric_limits<double>::max();
  constexpr std::uint64_t kMaxSeeds = 1u << 16;  // tasks per design
  constexpr unsigned kMaxThreads = 1024;
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (++i >= argc) usage(a + " needs a value");
      return argv[i];
    };
    // Numeric flags: the value's type is that of the bounds.
    auto number = [&](auto lo, auto hi) { return parse_number(a, value(), lo, hi); };
    if (a == "-o") {
      args.out_path = value();
    } else if (a == "--style") {
      const std::string s = value();
      if (s == "and") args.style = IsolationStyle::And;
      else if (s == "or") args.style = IsolationStyle::Or;
      else if (s == "latch") args.style = IsolationStyle::Latch;
      else usage("--style expects and|or|latch, got '" + s + "'");
    } else if (a == "--cycles") {
      args.cycles = number(std::uint64_t{1}, kU64Max);
    } else if (a == "--omega-a") {
      args.omega_a = number(0.0, kRealMax);
    } else if (a == "--h-min") {
      args.h_min = number(-kRealMax, kRealMax);
    } else if (a == "--slack-threshold") {
      args.slack_threshold = number(-kRealMax, kRealMax);
    } else if (a == "--lookahead") {
      args.lookahead = true;
    } else if (a == "--report") {
      args.report = true;
    } else if (a == "--trace") {
      args.trace_path = value();
    } else if (a == "--metrics") {
      args.metrics_path = value();
    } else if (a == "--profile") {
      args.profile_path = value();
    } else if (a == "--candidate") {
      args.candidate = value();
    } else if (a == "--tolerances") {
      args.tolerances_path = value();
    } else if (a == "--subset") {
      args.subset = true;
    } else if (a == "--progress") {
      args.progress = true;
    } else if (a == "--seeds") {
      args.seeds = number(std::uint64_t{1}, kMaxSeeds);
    } else if (a == "--lanes") {
      args.lanes = number(1u, ParallelSimulator::kMaxLanes);
    } else if (a == "--threads") {
      args.threads = number(0u, kMaxThreads);
    } else if (a == "--warmup") {
      args.warmup = number(std::uint64_t{0}, kU64Max);
    } else if (a == "--fail-fast") {
      args.fail_fast = true;
    } else if (a == "--task-budget-sec") {
      args.task_budget_sec = number(0.0, kRealMax);
    } else if (a == "--task-max-lane-cycles") {
      args.task_max_lane_cycles = number(std::uint64_t{0}, kU64Max);
    } else if (a == "--inject-failure") {
      args.inject_failure = number(std::int64_t{0}, std::numeric_limits<std::int64_t>::max());
    } else if (a == "--vcd") {
      args.vcd_path = value();
    } else if (a == "--trace-power") {
      args.trace_power_path = value();
    } else if (a == "--window") {
      args.window = number(std::uint64_t{1}, kU64Max);
    } else if (a == "--compare-isolated") {
      args.compare_isolated = true;
    } else if (a == "--bdd-budget") {
      args.bdd_budget = number(std::size_t{0}, std::numeric_limits<std::size_t>::max());
    } else if (a == "--json-errors") {
      args.json_errors = true;
    } else if (a == "--fail-on") {
      const std::string s = value();
      if (s == "error") args.fail_on = Severity::Error;
      else if (s == "warning") args.fail_on = Severity::Warning;
      else usage("--fail-on expects error|warning, got '" + s + "'");
    } else if (a == "--pass") {
      args.only_passes.push_back(value());
    } else if (a == "--no-prelint") {
      args.no_prelint = true;
    } else if (a == "--isolate") {
      args.sweep_isolate = true;
    } else if (a == "--confidence-level") {
      args.confidence_level = number(0.0, 1.0);
      if (args.confidence_level == 0.0 || args.confidence_level == 1.0) {
        usage(a + " expects a number strictly between 0 and 1");
      }
      args.confidence_flags = true;
    } else if (a == "--min-ci-halfwidth") {
      args.min_ci_halfwidth = number(0.0, kRealMax);
      args.confidence_flags = true;
    } else if (a == "--batch-frames") {
      args.batch_frames = number(std::uint32_t{1}, std::numeric_limits<std::uint32_t>::max());
      args.confidence_flags = true;
    } else if (a == "--no-confidence") {
      args.no_confidence = true;
    } else if (a == "--min-coverage-pct") {
      args.min_coverage_pct = number(0.0, 100.0);
    } else if (a == "--rewrite") {
      args.rewrite = true;
    } else if (a == "--metrics-prom") {
      args.metrics_prom_path = value();
    } else if (!a.empty() && a[0] == '-') {
      usage("unknown flag " + a);
    } else {
      args.positional.push_back(a);
    }
  }
  return args;
}

void emit(const Args& args, const Netlist& nl) {
  if (args.out_path.empty()) {
    write_netlist(std::cout, nl);
  } else {
    save_netlist(args.out_path, nl);
    std::cerr << "wrote " << args.out_path << "\n";
  }
}

// "-" writes the document to stdout (and nothing else: the "wrote ..."
// chatter stays on stderr-only paths so stdout is pipeable JSON).
void write_json_file(const std::string& path, const obs::JsonValue& doc) {
  if (path == "-") {
    doc.write(std::cout, 1);
    std::cout << '\n';
    return;
  }
  std::ofstream os(path);
  if (!os) throw Error("cannot open '" + path + "' for writing");
  doc.write(os, 1);
  os << '\n';
  std::cerr << "wrote " << path << "\n";
}

/// Human-facing result stream of a command whose machine output may be
/// routed to stdout: falls back to stderr whenever any JSON artifact
/// targets "-" so stdout parses as one JSON document.
std::ostream& human_out(const Args& args) {
  const bool stdout_is_json = args.metrics_path == "-" || args.trace_power_path == "-" ||
                              args.metrics_prom_path == "-";
  return stdout_is_json ? std::cerr : std::cout;
}

// Observability artifacts (after the command has run, so counters and
// spans cover the whole invocation).
void write_obs_artifacts(const Args& args, bool metrics_written) {
  if (!args.metrics_path.empty() && !metrics_written) {
    write_json_file(args.metrics_path, obs::metrics().snapshot());
  }
  if (!args.metrics_prom_path.empty()) {
    if (args.metrics_prom_path == "-") {
      obs::metrics().write_prometheus(std::cout);
    } else {
      std::ofstream os(args.metrics_prom_path);
      if (!os) throw Error("cannot open '" + args.metrics_prom_path + "' for writing");
      obs::metrics().write_prometheus(os);
      std::cerr << "wrote " << args.metrics_prom_path << "\n";
    }
  }
  if (!args.trace_path.empty()) {
    std::ofstream os(args.trace_path);
    if (!os) throw Error("cannot open '" + args.trace_path + "' for writing");
    obs::Tracer::instance().write_chrome_trace(os);
    std::cerr << "wrote " << args.trace_path << "\n";
  }
  if (!args.profile_path.empty()) {
    std::ofstream os(args.profile_path);
    if (!os) throw Error("cannot open '" + args.profile_path + "' for writing");
    const obs::ProfileNode root = obs::build_profile_tree(obs::Tracer::instance().events());
    obs::write_folded(os, root);
    std::cerr << "wrote " << args.profile_path << "\n";
  }
}

obs::JsonValue load_json_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw Error("cannot open '" + path + "'");
  std::string text((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  return obs::JsonValue::parse(text);
}

int run_report_diff_cmd(const Args& args) {
  // positional: ["diff", a.json, b.json]
  if (args.positional.size() != 3 || args.positional[0] != "diff") usage();
  const obs::JsonValue a = load_json_file(args.positional[1]);
  const obs::JsonValue b = load_json_file(args.positional[2]);
  obs::ToleranceSpec spec;
  if (!args.tolerances_path.empty()) {
    spec = obs::ToleranceSpec::parse(load_json_file(args.tolerances_path));
  }
  obs::DiffOptions options;
  options.subset = args.subset;
  const std::vector<obs::DiffEntry> entries = obs::diff_reports(a, b, spec, options);
  if (entries.empty()) {
    std::cerr << "reports match (" << args.positional[1] << " vs " << args.positional[2]
              << ")\n";
    return 0;
  }
  std::cerr << args.positional[1] << " vs " << args.positional[2] << ": " << entries.size()
            << " difference(s)\n";
  obs::print_diff(std::cout, entries);
  return 1;
}

/// Load a design for *analysis*: final validate() is skipped so broken
/// structures (combinational cycles) reach the analyzer instead of
/// being rejected by the loader, and source lines are recorded when the
/// caller wants them in diagnostics.
Netlist load_design_lenient(const std::string& path, SourceMap* source_map = nullptr) {
  if (path.size() > 4 && path.substr(path.size() - 4) == ".rtl") {
    return parse_rtl_file(path, RtlParseOptions{false}, source_map);
  }
  return load_netlist(path, NetlistReadOptions{false}, source_map);
}

/// Sweep/lint designs are builtin generator names or design files.
Netlist make_sweep_design(const std::string& name, SourceMap* source_map = nullptr) {
  if (name == "fig1") return make_fig1();
  if (name == "design1") return make_design1();
  if (name == "design2") return make_design2();
  return load_design_lenient(name, source_map);
}

lint::LintOptions lint_options(const Args& args) {
  lint::LintOptions opt;
  opt.bdd.max_nodes = args.bdd_budget;
  opt.overhead_slack_threshold_ns = args.slack_threshold;
  opt.only_passes = args.only_passes;
  return opt;
}

int run_lint_cmd(const Args& args, bool& metrics_written) {
  int exit_code = 0;
  obs::JsonValue reports = obs::JsonValue::array();
  for (const std::string& name : args.positional) {
    SourceMap source_map;
    const Netlist nl = make_sweep_design(name, &source_map);
    const lint::LintReport report = lint::run_lint(nl, lint_options(args), &source_map);
    lint::print_lint_text(human_out(args), report, name);
    if (report.fails(args.fail_on)) exit_code = 1;
    if (!args.metrics_path.empty()) reports.push_back(lint::build_lint_report(report));
  }
  if (!args.metrics_path.empty()) {
    // One design -> the bare opiso.lint/v1 document; several -> a
    // wrapper carrying one document per design.
    if (reports.size() == 1) {
      write_json_file(args.metrics_path, reports.at(0));
    } else {
      obs::JsonValue doc = obs::JsonValue::object();
      doc["schema"] = "opiso.lint/v1";
      doc["reports"] = std::move(reports);
      write_json_file(args.metrics_path, doc);
    }
    metrics_written = true;
  }
  return exit_code;
}

IsolationOptions isolate_options(const Args& args);

int run_sweep_cmd(const Args& args, bool& metrics_written) {
  // --isolate: every task runs Algorithm 1 under its own seed instead of
  // a plain measurement. One shared options block; the sweep layer
  // installs the per-task engine config and stimulus factories.
  std::shared_ptr<const IsolationOptions> iso;
  if (args.sweep_isolate) {
    IsolationOptions o = isolate_options(args);
    // Confidence stays opt-in for sweeps (per-task t.confidence below):
    // existing sweep reports keep their exact shape unless asked.
    o.confidence = {};
    iso = std::make_shared<const IsolationOptions>(std::move(o));
  }
  std::vector<SweepTask> tasks;
  for (const std::string& name : args.positional) {
    make_sweep_design(name);  // fail fast on a bad name, before the pool spins up
    for (std::uint64_t seed = 1; seed <= args.seeds; ++seed) {
      SweepTask t;
      t.design = name;
      t.make_design = [name] { return make_sweep_design(name); };
      t.seed = seed;
      t.lanes = args.lanes ? args.lanes : ParallelSimulator::kMaxLanes;
      t.cycles = std::max<std::uint64_t>(1, args.cycles / t.lanes);
      t.warmup = args.warmup.value_or(0);
      if (args.confidence_flags && !args.no_confidence) {
        t.confidence.enabled = true;
        t.confidence.level = args.confidence_level;
        t.confidence.batch_frames = args.batch_frames;
        t.confidence.min_power_ci_halfwidth_mw = args.min_ci_halfwidth;
      }
      t.isolate = iso;
      tasks.push_back(std::move(t));
    }
  }
  if (args.inject_failure >= 0) {
    // Deliberate sabotage of one task so CI (and users) can watch the
    // fault-isolation machinery do its job on demand.
    const auto index = static_cast<std::size_t>(args.inject_failure);
    if (index >= tasks.size()) {
      std::cerr << "sweep: --inject-failure " << index << " out of range (have "
                << tasks.size() << " tasks)\n";
      usage();
    }
    tasks[index].make_design = [index]() -> Netlist {
      throw Error("injected failure in task " + std::to_string(index));
    };
  }
  SweepRunner runner(args.threads);
  const auto t0 = std::chrono::steady_clock::now();
  SweepProgressFn progress;
  if (args.progress) {
    progress = [&tasks](const SweepProgress& p) {
      char line[256];
      std::snprintf(line, sizeof line,
                    "[opiso] sweep %zu/%zu: %s seed %llu done (%.1fs elapsed, eta %.1fs)\n",
                    p.completed, p.total, tasks[p.task_index].design.c_str(),
                    static_cast<unsigned long long>(tasks[p.task_index].seed), p.elapsed_sec,
                    p.eta_sec);
      std::cerr << line;
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
  const SweepOutcome outcome = runner.run_isolated(tasks, options, progress);
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
  if (!args.metrics_path.empty()) {
    write_json_file(args.metrics_path, build_sweep_report(outcome));
    metrics_written = true;
  }
  // Deterministic exit-code policy: a sweep that completed but recorded
  // task failures exits 3 (distinct from hard errors = 1, usage = 2).
  return outcome.ok() ? 0 : 3;
}

/// Options of the isolate-family commands. Every measurement round runs
/// opt.sim_lanes (--lanes, default 64) lanes of seed-1 lane streams, so
/// the flows need no single-stream factory.
IsolationOptions isolate_options(const Args& args) {
  IsolationOptions opt;
  opt.style = args.style;
  opt.sim_cycles = args.cycles;
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

struct WaveCapture {
  CycleTrace trace;
  PowerTrace power;
};

/// Trace one measurement round of the isolate discipline
/// (measure_activity on the isolate options' lanes), so the captured
/// waveform integrates to the same power the isolate command reports.
/// The sink attaches after warmup: the trace covers exactly the cycles
/// the aggregate statistics cover.
WaveCapture capture_wave(const Netlist& nl, const IsolationOptions& opt, std::uint64_t window,
                         bool record_values) {
  CycleTrace trace(window, record_values);
  (void)measure_activity(nl, nullptr, nullptr, opt, nullptr, &trace);
  trace.finish();
  PowerTrace power = compute_power_trace(nl, trace, opt.power);
  return {std::move(trace), std::move(power)};
}

int run_wave_cmd(const Args& args, const Netlist& design) {
  const IsolationOptions opt = isolate_options(args);
  std::ostream& out = human_out(args);

  const WaveCapture orig = capture_wave(design, opt, args.window, !args.vcd_path.empty());
  // Bit-for-bit the power the isolate command would report as
  // power_before_mw: same toggles, same cycle count, same estimator.
  const double orig_mw =
      PowerEstimator(opt.power).estimate(design, orig.trace.to_activity_stats()).total_mw;

  if (!args.vcd_path.empty()) {
    std::ofstream os(args.vcd_path);
    if (!os) throw Error("cannot open '" + args.vcd_path + "' for writing");
    obs::write_vcd(os, design, orig.trace, &orig.power);
    std::cerr << "wrote " << args.vcd_path << "\n";
  }

  out << "wave: " << design.name() << " (" << orig.power.lanes
      << (orig.power.lanes == 1 ? " lane): " : " lanes): ")
      << orig.power.lane_cycles()
      << " lane-cycles in " << orig.power.num_samples() << " sample(s) (window " << args.window
      << "), total " << orig.power.total_energy_fj << " fJ, " << orig_mw << " mW\n";

  if (!args.compare_isolated) {
    obs::write_heatmap_table(out, design, orig.power);
    if (!args.trace_power_path.empty()) {
      obs::JsonValue doc =
          obs::build_power_trace_section(design, orig.power, design.name());
      doc["estimator_total_mw"] = orig_mw;
      write_json_file(args.trace_power_path, doc);
    }
    return 0;
  }

  // --compare-isolated: run Algorithm 1, retrace the transformed design
  // under the identical discipline, and overlay the two waveforms.
  const IsolationResult res = run_operand_isolation(design, nullptr, opt);
  const WaveCapture iso = capture_wave(res.netlist, opt, args.window, false);
  const double iso_mw =
      PowerEstimator(opt.power).estimate(res.netlist, iso.trace.to_activity_stats()).total_mw;

  obs::JsonValue doc = obs::build_wave_compare(design, orig.power, res.netlist, iso.power,
                                               res.records, design.name());
  doc["original_power_mw"] = orig_mw;
  doc["isolated_power_mw"] = iso_mw;
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

  if (!args.trace_power_path.empty()) write_json_file(args.trace_power_path, doc);
  return 0;
}

/// `opiso coverage <design>`: one measurement round under the identical
/// discipline run_operand_isolation's final measure uses (same engine
/// split, same probes), rendered as the standalone opiso.coverage/v1
/// document — so a raw design's coverage matches the section an isolate
/// run would embed for it.
int run_coverage_cmd(const Args& args, bool& metrics_written) {
  if (args.positional.size() != 1) usage();
  const Netlist design = make_sweep_design(args.positional[0]);
  IsolationOptions opt = isolate_options(args);
  if (args.warmup) opt.warmup_cycles = *args.warmup;

  ExprPool pool;
  NetVarMap vars;
  const ActivationAnalysis analysis = derive_activation(design, pool, vars, opt.activation);
  const std::vector<CombBlock> blocks = combinational_blocks(design);
  const std::vector<IsolationCandidate> cands =
      identify_candidates(design, blocks, analysis, pool, opt.candidates);
  SavingsEstimator estimator(design, pool, vars, cands, opt.power);
  const ActivityStats stats =
      measure_activity(design, &pool, &vars, opt,
                       [&estimator](ProbeHost& sim) { estimator.register_probes(sim); });

  std::vector<CandidateExercise> exercise;
  exercise.reserve(cands.size());
  for (std::size_t i = 0; i < cands.size(); ++i) {
    exercise.push_back({design.cell(cands[i].cell).name, estimator.activation_probe(i)});
  }
  const obs::JsonValue doc = build_coverage_section(design, stats, exercise);

  std::ostream& out = human_out(args);
  const double pct = doc.at("toggle_coverage_pct").as_number();
  out << "coverage: " << design.name() << ": " << doc.at("nets_toggled").as_uint64() << "/"
      << doc.at("nets_total").as_uint64() << " nets toggled (" << pct << "%) over "
      << doc.at("cycles").as_uint64() << " cycles\n";
  for (const obs::JsonValue& n : doc.at("never_toggled").elements()) {
    out << "  never toggled: " << n.as_string() << "\n";
  }
  for (const obs::JsonValue& c : doc.at("candidates").elements()) {
    out << "  candidate " << c.at("cell").as_string() << ": active "
        << c.at("active_cycles").as_uint64() << ", idle " << c.at("idle_cycles").as_uint64()
        << ", activation toggles " << c.at("activation_toggles").as_uint64() << ", Pr[AS] "
        << c.at("pr_active").as_number()
        << (c.at("exercised").as_bool() ? "" : "  [NOT exercised]") << "\n";
  }

  if (!args.metrics_path.empty()) {
    write_json_file(args.metrics_path, doc);
    metrics_written = true;
  }
  if (args.min_coverage_pct >= 0.0 && pct < args.min_coverage_pct) {
    std::cerr << "coverage: " << design.name() << " toggle coverage " << pct
              << "% is below the required " << args.min_coverage_pct << "%\n";
    return 1;
  }
  return 0;
}

int run(int argc, char** argv) {
  if (argc < 3) usage();
  const std::string cmd = argv[1];
  const Args args = parse_args(argc, argv);
  if (args.positional.empty()) usage();
  if (!args.trace_path.empty() || !args.profile_path.empty()) {
    obs::Tracer::instance().set_enabled(true);
  }
  int exit_code = 0;
  bool metrics_written = false;
  if (cmd == "report") {
    // No design to load: operands are report files.
    return run_report_diff_cmd(args);
  }
  if (cmd == "sweep") {
    // Handled before the shared design load: sweep takes several
    // designs, by builtin name or path.
    const int rc = run_sweep_cmd(args, metrics_written);
    write_obs_artifacts(args, metrics_written);
    return rc;
  }
  if (cmd == "lint") {
    // Also before the shared load: lint takes several designs and loads
    // them leniently (a cyclic design must reach the analyzer).
    const int rc = run_lint_cmd(args, metrics_written);
    write_obs_artifacts(args, metrics_written);
    return rc;
  }
  if (cmd == "wave") {
    // Before the shared load: wave accepts builtin design names
    // (design1, design2, fig1) as well as files, like sweep.
    const Netlist design = make_sweep_design(args.positional[0]);
    const int rc = run_wave_cmd(args, design);
    write_obs_artifacts(args, metrics_written);
    return rc;
  }
  if (cmd == "coverage") {
    // Before the shared load: coverage accepts builtin design names
    // (design1, design2, fig1) as well as files, like sweep and wave.
    const int rc = run_coverage_cmd(args, metrics_written);
    write_obs_artifacts(args, metrics_written);
    return rc;
  }
  if (cmd == "vcd-check") {
    // Operand is a VCD file, not a design.
    if (args.positional.size() != 1) usage();
    std::ifstream is(args.positional[0]);
    if (!is) throw IoError("cannot open '" + args.positional[0] + "'");
    const std::string text((std::istreambuf_iterator<char>(is)),
                           std::istreambuf_iterator<char>());
    const obs::VcdDocument doc = obs::parse_vcd(text);
    std::cerr << "vcd-check: " << args.positional[0] << ": ok (" << doc.vars.size()
              << " vars, " << doc.num_timestamps << " timestamps, " << doc.num_changes
              << " changes)\n";
    return 0;
  }
  const Netlist design = load_design(args.positional[0]);

  if (cmd == "stats") {
    std::cout << "design '" << design.name() << "'\n"
              << stats_to_string(compute_stats(design));
  } else if (cmd == "dot") {
    write_dot(std::cout, design);
  } else if (cmd == "activation") {
    ExprPool pool;
    NetVarMap vars;
    ActivationOptions opt;
    opt.register_lookahead = args.lookahead;
    const ActivationAnalysis aa = derive_activation(design, pool, vars, opt);
    for (CellId id : design.cell_ids()) {
      const Cell& c = design.cell(id);
      if (!cell_kind_is_arith(c.kind)) continue;
      std::cout << c.name << ": AS = "
                << activation_to_string(design, pool, vars, aa.activation_of(design, id))
                << "\n";
    }
  } else if (cmd == "power") {
    // One measurement round exactly as isolate takes its first one, so
    // this prints isolate's power_before_mw.
    const ActivityStats stats =
        measure_activity(design, nullptr, nullptr, isolate_options(args));
    const PowerBreakdown pb = PowerEstimator().estimate(design, stats);
    std::cout << "total " << pb.total_mw << " mW (arith " << pb.arith_mw << ", steering "
              << pb.steering_mw << ", sequential " << pb.sequential_mw << ", isolation "
              << pb.isolation_mw << ")\n";
  } else if (cmd == "isolate") {
    IsolationOptions opt = isolate_options(args);
    if (args.progress) {
      opt.on_iteration = [](const IterationLog& log) {
        std::cerr << "[opiso] iter " << log.iteration << ": power "
                  << log.total_power_mw << " mW, pool " << log.pool_size << ", evaluated "
                  << log.evaluations.size() << ", isolated " << log.num_isolated << "\n";
      };
    }
    const IsolationResult res = run_operand_isolation(design, nullptr, opt);
    std::cerr << format_isolation_summary(res);
    if (args.report) std::cerr << "\n" << format_iteration_log(res);
    if (!args.metrics_path.empty()) {
      write_json_file(args.metrics_path, obs::build_run_report(res, opt));
      metrics_written = true;
    }
    if (!args.out_path.empty()) emit(args, res.netlist);
    if (opt.confidence.enabled && !res.confidence_converged) {
      // The gate flags, never silently extends: the report (with
      // converged:false) is already written in full.
      std::cerr << "isolate: final power CI half-width exceeds --min-ci-halfwidth "
                << args.min_ci_halfwidth << " mW [confidence.under-converged]\n";
      exit_code = 3;
    }
  } else if (cmd == "explain") {
    if (args.candidate.empty()) {
      std::cerr << "explain: --candidate NAME is required\n";
      usage();
    }
    const IsolationOptions opt = isolate_options(args);
    const IsolationResult res = run_operand_isolation(design, nullptr, opt);
    if (!obs::write_candidate_narrative(std::cout, res, args.candidate)) exit_code = 1;
    if (!args.metrics_path.empty()) {
      write_json_file(args.metrics_path, obs::build_run_report(res, opt));
      metrics_written = true;
    }
  } else if (cmd == "optimize") {
    OptimizeStats stats;
    const Netlist o = optimize(design, {}, &stats);
    std::cerr << "cells " << stats.cells_before << " -> " << stats.cells_after << " (folded "
              << stats.folded_constants << ", simplified " << stats.simplified << ", cse "
              << stats.cse_merged << ", dead " << stats.dead_removed << ")\n";
    emit(args, o);
  } else if (cmd == "rewrite") {
    const RewriteResult r = rewrite_datapath(design);
    if (r.rewritten) {
      std::cerr << "rewritten: cells " << r.cells_before << " -> " << r.cells_after
                << ", cost " << r.cost_before << " -> " << r.cost_after << " ("
                << r.verify_obligations << " equivalence obligations discharged)\n";
    } else {
      std::cerr << "unchanged: " << r.fallback_reason << "\n";
    }
    if (!args.metrics_path.empty()) {
      write_json_file(args.metrics_path, rewrite_report_section(r));
      metrics_written = true;
    }
    emit(args, r.netlist);
  } else if (cmd == "lower") {
    const GateLevelResult g = lower_to_gates(design);
    std::cerr << "lowered to " << g.netlist.num_cells() << " gate-level cells\n";
    emit(args, g.netlist);
  } else if (cmd == "verify") {
    if (args.positional.size() < 2) usage();
    const Netlist other = load_design(args.positional[1]);
    const EquivResult res = check_isolation_equivalence(design, other);
    if (res.equivalent) {
      std::cout << "EQUIVALENT (" << res.obligations_checked << " obligations, "
                << res.bdd_nodes << " BDD nodes)\n";
    } else {
      std::cout << "NOT EQUIVALENT: " << res.reason << "\n";
      exit_code = 1;
    }
  } else {
    usage();
  }

  write_obs_artifacts(args, metrics_written);
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  // --json-errors must work even when parse_args itself throws, so scan
  // for it up front.
  bool json_errors = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json-errors") == 0) json_errors = true;
  }
  try {
    return run(argc, argv);
  } catch (const opiso::OpisoError& e) {
    std::cerr << "error[" << e.code_name() << "]: " << e.what() << "\n";
    if (json_errors) std::cerr << e.json() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error[" << opiso::error_code_name(opiso::ErrCode::Internal) << "]: "
              << e.what() << "\n";
    if (json_errors) {
      std::cerr << opiso::OpisoError(opiso::ErrCode::Internal, e.what()).json() << "\n";
    }
    return 1;
  }
}
