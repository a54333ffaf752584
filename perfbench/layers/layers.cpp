// opiso_layers — the benchmark's per-layer runner.
//
// Times the coarse public entry points of the opiso library whose cost
// the program's own profile spans do not cover, and prints one JSON
// document on stdout when the run ends:
//
//   {"spans":   [{"name", "start_ns", "end_ns", "parent"}, ...],
//    "counters": {...},      // sizes and counts read off the results
//    "outputs":  {...}}      // deterministic results, compared by run.py
//                            // against the untraced CLI run
//
//   opiso_layers isolate <design> --cycles N [--rewrite]
//       parse, lint, [rewrite without verification + the equivalence
//       check it skipped], the Algorithm-1 flow with the CLI's isolate
//       defaults, run-report build + serialisation, and for the first
//       and the final netlist of the flow: activation, blocks,
//       candidates, SavingsEstimator construction, one 64-lane
//       measurement round with and without the savings probes, and the
//       per-candidate savings terms.
//   opiso_layers sweep <design> --seeds N --cycles N
//       parse (builtin names as in `opiso sweep`), lint, and the
//       lane-parallel measurement of every sweep task of the design.

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "designs/designs.hpp"
#include "frontend/rtl_parser.hpp"
#include "isolation/activation.hpp"
#include "isolation/algorithm.hpp"
#include "isolation/candidates.hpp"
#include "isolation/savings.hpp"
#include "lint/lint.hpp"
#include "netlist/text_io.hpp"
#include "netlist/traversal.hpp"
#include "obs/json.hpp"
#include "obs/run_report.hpp"
#include "opt/rewrite_rules.hpp"
#include "power/estimator.hpp"
#include "sim/parallel_sim.hpp"
#include "sim/stimulus.hpp"
#include "sim/sweep.hpp"
#include "util/error.hpp"
#include "verify/equiv.hpp"

namespace {

using namespace opiso;
using Clock = std::chrono::steady_clock;

constexpr int kRoundRepeats = 5;  ///< measurement-round pairs per netlist
constexpr int kSweepRepeats = 3;  ///< passes over a design's sweep tasks

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::string parent;
};

std::vector<SpanRecord> g_spans;
std::vector<std::string> g_open;
const Clock::time_point g_epoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - g_epoch).count();
}

/// Scoped span; records (name, start, end, enclosing span) on close.
class Span {
 public:
  explicit Span(std::string name) : name_(std::move(name)), start_(now_ns()) {
    parent_ = g_open.empty() ? "" : g_open.back();
    g_open.push_back(name_);
  }
  ~Span() {
    g_open.pop_back();
    g_spans.push_back({name_, start_, now_ns(), parent_});
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::string name_;
  std::int64_t start_;
  std::string parent_;
};

[[noreturn]] void usage() {
  std::cerr << "usage: opiso_layers isolate <design> --cycles N [--rewrite]\n"
               "       opiso_layers sweep <design> --seeds N --cycles N\n";
  std::exit(2);
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Loads a design the way the CLI does: builtin names as in `opiso
/// sweep`, `.rtl` through the RTL frontend, anything else as `.rtn`.
Netlist load_design(const std::string& name) {
  if (name == "fig1") return make_fig1();
  if (name == "design1") return make_design1();
  if (name == "design2") return make_design2();
  if (ends_with(name, ".rtl")) return parse_rtl_file(name);
  return load_netlist(name);
}

void print_result(obs::JsonValue counters, obs::JsonValue outputs) {
  obs::JsonValue spans = obs::JsonValue::array();
  for (const SpanRecord& r : g_spans) {
    obs::JsonValue s = obs::JsonValue::object();
    s["name"] = r.name;
    s["start_ns"] = static_cast<long long>(r.start_ns);
    s["end_ns"] = static_cast<long long>(r.end_ns);
    s["parent"] = r.parent;
    spans.push_back(std::move(s));
  }
  obs::JsonValue doc = obs::JsonValue::object();
  doc["spans"] = std::move(spans);
  doc["counters"] = std::move(counters);
  doc["outputs"] = std::move(outputs);
  doc.write(std::cout, 1);
  std::cout << "\n";
}

ParallelSimulator::LaneStimulusFactory lane_stimuli(std::uint64_t seed) {
  return [seed](unsigned lane) { return std::make_unique<UniformStimulus>(sweep_lane_seed(seed, lane)); };
}

/// `opiso isolate`'s defaults (tools/opiso_cli.cpp isolate_options with
/// no flags but --cycles and --rewrite).
IsolationOptions cli_isolate_options(std::uint64_t cycles, bool rewrite) {
  IsolationOptions opt;
  opt.sim_cycles = cycles;
  opt.rewrite = rewrite;
  opt.confidence.enabled = true;
  opt.lane_stimuli = lane_stimuli(1);
  return opt;
}

/// One measurement round's worth of the per-iteration work the flow
/// does outside its own spans, on netlist `nl` (`tag`: first|final).
void measure_round(const Netlist& nl, const IsolationOptions& opt, const std::string& tag,
                   obs::JsonValue& counters) {
  Span round("round." + tag);
  ExprPool pool;
  NetVarMap vars;
  std::optional<ActivationAnalysis> analysis;
  {
    Span s("isolation.activation");
    analysis.emplace(derive_activation(nl, pool, vars, opt.activation));
  }
  std::vector<CombBlock> blocks;
  {
    Span s("isolation.blocks");
    blocks = combinational_blocks(nl);
  }
  std::vector<IsolationCandidate> cands;
  {
    Span s("isolation.candidates");
    cands = identify_candidates(nl, blocks, *analysis, pool, opt.candidates);
  }
  std::optional<SavingsEstimator> estimator;
  {
    Span s("isolation.savings_setup");
    estimator.emplace(nl, pool, vars, cands, opt.power);
  }
  const auto run_round = [&](SavingsEstimator* probes) {
    ParallelSimulator sim(nl, opt.sim_lanes, probes ? &pool : nullptr, probes ? &vars : nullptr);
    if (opt.confidence.enabled) sim.enable_batch_stats(opt.confidence.batch_frames);
    if (probes) probes->register_probes(sim);
    sim.set_stimulus(lane_stimuli(1));
    const std::uint64_t lanes = sim.lanes();
    if (opt.warmup_cycles > 0) sim.warmup((opt.warmup_cycles + lanes - 1) / lanes);
    sim.run(std::max<std::uint64_t>(1, opt.sim_cycles / lanes));
    return sim.stats();
  };
  // Alternating repeats, so run.py can take medians of both spans. An
  // estimator registers its probes once, so each repeat after the first
  // builds its own, outside the spans.
  ActivityStats stats;
  for (int rep = 0; rep < kRoundRepeats; ++rep) {
    std::optional<SavingsEstimator> fresh;
    if (rep > 0) fresh.emplace(nl, pool, vars, cands, opt.power);
    {
      Span s("sim.round_probes");
      ActivityStats round = run_round(rep == 0 ? &*estimator : &*fresh);
      if (rep == 0) stats = std::move(round);
    }
    {
      Span s("sim.round_plain");
      (void)run_round(nullptr);
    }
  }
  double checksum = 0.0;
  {
    Span s("isolation.savings_eval");
    for (std::size_t i = 0; i < cands.size(); ++i) {
      checksum += estimator->pr_redundant(i, stats) +
                  estimator->primary_savings_mw(i, stats, opt.primary_model) +
                  estimator->secondary_savings_mw(i, stats) +
                  estimator->overhead_mw(i, stats, opt.style);
    }
  }
  counters["candidates." + tag] = cands.size();
  counters["savings_checksum." + tag] = checksum;
}

int run_isolate(const std::string& design, std::uint64_t cycles, bool rewrite) {
  obs::JsonValue counters = obs::JsonValue::object();
  obs::JsonValue outputs = obs::JsonValue::object();
  Netlist nl;
  {
    Span s("frontend.parse");
    nl = load_design(design);
  }
  {
    Span s("lint.run");
    (void)lint::run_lint(nl);
  }
  const IsolationOptions opt = cli_isolate_options(cycles, rewrite);
  Netlist first = nl;
  if (rewrite) {
    // The flow's rewrite (run_operand_isolation) with verification split
    // off, so saturation/extraction and the equivalence proof time apart.
    RewriteOptions ropt = opt.rewrite_options;
    ropt.omega_p = opt.omega_p;
    ropt.omega_a = opt.omega_a;
    ropt.iso_min_width = opt.candidates.min_width;
    ropt.verify = false;
    RewriteResult rw;
    {
      Span s("opt.saturate");
      rw = rewrite_datapath(nl, ropt);
    }
    std::uint64_t fired = 0;
    for (const auto& [rule, n] : rw.rules_fired) fired += n;
    counters["egraph_nodes"] = rw.egraph_nodes;
    counters["saturation_iterations"] = rw.iterations;
    counters["rewrites_emitted"] = fired;
    bool proven = false;
    if (rw.rewritten) {
      EquivResult eq;
      bool budget_hit = false;
      const std::int64_t t0 = now_ns();
      {
        Span s("verify.equiv");
        try {
          eq = check_isolation_equivalence(nl, rw.netlist, BddBudget{ropt.bdd_node_budget, 0});
        } catch (const ResourceError&) {
          budget_hit = true;
        }
      }
      const double secs = static_cast<double>(now_ns() - t0) * 1e-9;
      proven = !budget_hit && eq.equivalent;
      counters["obligations"] = eq.obligations_checked;
      counters["bdd_nodes"] = budget_hit ? ropt.bdd_node_budget : eq.bdd_nodes;
      counters["wasted_s"] = proven ? 0.0 : secs;
      if (proven) first = rw.netlist;
    }
    outputs["rewritten"] = proven;
  }
  std::optional<IsolationResult> res;
  {
    Span s("isolate.flow");
    res.emplace(run_operand_isolation(nl, [] { return std::make_unique<UniformStimulus>(1); }, opt));
  }
  {
    Span s("obs.report");
    const obs::JsonValue doc = obs::build_run_report(*res, opt);
    std::ostringstream os;
    doc.write(os, 1);
    counters["report_bytes"] = os.str().size();
  }
  measure_round(first, opt, "first", counters);
  measure_round(res->netlist, opt, "final", counters);
  counters["cells"] = nl.num_cells();
  outputs["power_before_mw"] = res->power_before_mw;
  outputs["power_after_mw"] = res->power_after_mw;
  outputs["modules_isolated"] = res->records.size();
  outputs["iterations"] = res->iterations.size();
  print_result(counters, outputs);
  return 0;
}

int run_sweep(const std::string& design, std::uint64_t seeds, std::uint64_t cycles) {
  obs::JsonValue counters = obs::JsonValue::object();
  obs::JsonValue outputs = obs::JsonValue::object();
  Netlist nl;
  {
    Span s("frontend.parse");
    nl = load_design(design);
  }
  {
    Span s("lint.run");
    (void)lint::run_lint(nl);
  }
  // `opiso sweep`'s task: all compiled lanes, --cycles split across
  // them, no warmup, seeds 1..N. The tasks repeat so run.py can take a
  // median; the outputs come from the first pass.
  obs::JsonValue tasks = obs::JsonValue::array();
  std::uint64_t lane_cycles = 0;
  for (int rep = 0; rep < kSweepRepeats; ++rep) {
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      ActivityStats stats;
      {
        Span s("sim.sweep_task");
        ParallelSimulator sim(nl, ParallelSimulator::kMaxLanes);
        sim.set_stimulus(lane_stimuli(seed));
        sim.run(std::max<std::uint64_t>(1, cycles / sim.lanes()));
        stats = sim.stats();
      }
      if (rep > 0) continue;
      obs::JsonValue t = obs::JsonValue::object();
      t["seed"] = seed;
      t["lane_cycles"] = stats.cycles;
      t["toggles"] = std::accumulate(stats.toggles.begin(), stats.toggles.end(), std::uint64_t{0});
      t["power_mw"] = PowerEstimator().estimate(nl, stats).total_mw;
      lane_cycles += stats.cycles;
      tasks.push_back(std::move(t));
    }
  }
  counters["cells"] = nl.num_cells();
  counters["lane_cycles"] = lane_cycles;
  outputs["tasks"] = std::move(tasks);
  print_result(counters, outputs);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) usage();
  const std::string mode = argv[1];
  const std::string design = argv[2];
  std::uint64_t cycles = 0;
  std::uint64_t seeds = 0;
  bool rewrite = false;
  for (int i = 3; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--rewrite") {
      rewrite = true;
    } else if ((a == "--cycles" || a == "--seeds") && i + 1 < argc) {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || v == 0) usage();
      (a == "--cycles" ? cycles : seeds) = v;
    } else {
      usage();
    }
  }
  try {
    if (mode == "isolate" && cycles > 0 && seeds == 0) return run_isolate(design, cycles, rewrite);
    if (mode == "sweep" && cycles > 0 && seeds > 0 && !rewrite) return run_sweep(design, seeds, cycles);
  } catch (const std::exception& e) {
    std::cerr << "opiso_layers: " << e.what() << "\n";
    return 1;
  }
  usage();
}
