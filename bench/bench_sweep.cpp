// Perf-trajectory bench: wall-clock and throughput of the sweep and
// isolation flows.
//
// Emits BENCH_sweep.json (schema opiso.bench_sweep/v1). Its wall_ms
// rows are gated by tools/perf_ab.py, which runs this bench for the
// base revision and the change in alternating pairs on one host.
// Deterministic fields (lane_cycles, stimulus_words) are held exactly
// to the committed ci/bench_baseline snapshot (ctest
// bench_sweep_structural), so a workload change that silently shrinks
// the measured work cannot masquerade as a speedup, and a change that
// adds stimulus work fails on any host.
//
// Each timing is best-of-kReps to shave scheduler noise; the simulated
// work itself is deterministic (fixed seeds), so lane_cycles and
// stimulus_words (the engine's sim.stimulus_words counter over one
// repetition) are stable across runs and machines.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "designs/designs.hpp"
#include "isolation/activation.hpp"
#include "isolation/algorithm.hpp"
#include "isolation/savings.hpp"
#include "netlist/traversal.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sim/sweep.hpp"

namespace {

using namespace opiso;

constexpr int kReps = 3;

struct BenchRow {
  std::string name;
  double wall_ms = 0.0;                  ///< best of kReps
  std::uint64_t lane_cycles = 0;         ///< deterministic work measure
  std::uint64_t stimulus_words = 0;      ///< stimulus words of one repetition
  double lane_cycles_per_sec = 0.0;      ///< lane_cycles / best wall time
};

/// Best-of-kReps wall time of `body`; `body` returns the lane-cycle
/// count of one repetition (identical across reps by construction).
BenchRow time_bench(const std::string& name,
                    const std::function<std::uint64_t()>& body) {
  BenchRow row;
  row.name = name;
  const obs::Counter& words = obs::metrics().counter("sim.stimulus_words");
  double best_ms = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const std::uint64_t words_before = words.value();
    const auto t0 = std::chrono::steady_clock::now();
    row.lane_cycles = body();
    const auto t1 = std::chrono::steady_clock::now();
    row.stimulus_words = words.value() - words_before;
    const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (rep == 0 || ms < best_ms) best_ms = ms;
  }
  row.wall_ms = best_ms;
  row.lane_cycles_per_sec =
      best_ms > 0.0 ? static_cast<double>(row.lane_cycles) / (best_ms / 1e3) : 0.0;
  std::printf("  %-24s %10.2f ms  %12llu lane-cycles  %12llu stimulus words  %12.0f lc/s\n",
              name.c_str(), row.wall_ms, static_cast<unsigned long long>(row.lane_cycles),
              static_cast<unsigned long long>(row.stimulus_words), row.lane_cycles_per_sec);
  return row;
}

/// Sweep of two designs and two seeds, `cycles` per lane; exits 1 on a
/// failed task so a broken sweep cannot pass as a fast one.
std::uint64_t run_sweep_once(unsigned lanes, std::uint64_t cycles) {
  std::vector<SweepTask> tasks;
  for (std::uint64_t seed : {1ull, 2ull}) {
    SweepTask t;
    t.design = "design1";
    t.make_design = [] { return make_design1(8); };
    t.seed = seed;
    t.options.sim_lanes = lanes;
    t.options.sim_cycles = cycles * lanes;
    t.options.warmup_cycles = 0;
    tasks.push_back(t);
    t.design = "design2";
    t.make_design = [] { return make_design2(8, 4); };
    tasks.push_back(t);
  }
  const SweepOutcome out = SweepRunner(1).run(tasks);
  for (const SweepTaskFailure& f : out.failures) {
    std::fprintf(stderr, "bench: sweep task %zu (%s seed %llu) failed [%s]: %s\n", f.task_index,
                 f.design.c_str(), static_cast<unsigned long long>(f.seed), f.code.c_str(),
                 f.message.c_str());
  }
  if (!out.ok()) std::exit(1);
  std::uint64_t total = 0;
  for (const SweepResult& r : out.results) total += r.lane_cycles;
  return total;
}

/// Deep always-on multiplier pipeline whose only isolation candidate
/// sits at the tail (the one register with a non-constant enable): a
/// two-round Algorithm-1 flow whose time is almost all re-simulation
/// of the pipeline bulk.
Netlist make_tail_pipeline(unsigned stages, unsigned width) {
  Netlist nl;
  const NetId one = nl.add_const("one", 1, 1);
  const NetId a = nl.add_input("a", width);
  const NetId b = nl.add_input("b", width);
  const NetId g = nl.add_input("g", 1);
  NetId x = a;
  for (unsigned s = 0; s < stages; ++s) {
    const NetId m = nl.add_binop(CellKind::Mul, "mul" + std::to_string(s), x, b);
    const NetId sum = nl.add_binop(CellKind::Add, "add" + std::to_string(s), m, a);
    x = nl.add_reg("r" + std::to_string(s), sum, one);
  }
  const NetId mt = nl.add_binop(CellKind::Mul, "mul_tail", x, b);
  const NetId r = nl.add_reg("reg_tail", mt, g);
  nl.add_output("out", r);
  nl.add_output("mid", x);
  nl.validate();
  return nl;
}

/// One full Algorithm-1 flow on the tail pipeline; returns the
/// lane-cycles simulated across all measurement rounds.
std::uint64_t run_isolate_once() {
  const Netlist nl = make_tail_pipeline(16, 8);
  IsolationOptions opt;
  opt.sim_lanes = 64;
  opt.sim_cycles = 64 * 2048;
  opt.warmup_cycles = 64 * 8;
  opt.lane_stimuli = [](unsigned lane) {
    return std::make_unique<UniformStimulus>(sweep_lane_seed(7, lane));
  };
  const IsolationResult res = run_operand_isolation(nl, nullptr, opt);
  return (res.iterations.size() + 1) * opt.sim_cycles;
}

/// Algorithm 1 with default options on a wide parametric datapath
/// (64 lanes x 4 stages: 2240 cells, 768 candidates) and a short
/// simulation (256 macro-cycles per round), so set-up work that scales
/// with candidates x netlist, such as a whole-netlist pass per
/// candidate, would dominate this row.
std::uint64_t run_isolate_wide_once() {
  const Netlist nl = make_parametric_datapath({64, 4, 8, true});
  IsolationOptions opt;
  opt.sim_cycles = 64 * 256;
  opt.lane_stimuli = [](unsigned lane) {
    return std::make_unique<UniformStimulus>(sweep_lane_seed(7, lane));
  };
  const IsolationResult res = run_operand_isolation(nl, nullptr, opt);
  return (res.iterations.size() + 1) * opt.sim_cycles;
}

/// One measure_activity round with the savings model's probes on the
/// isolate_wide design: 64 lanes of 256 macro-cycles, no warmup, about
/// 3.6k probes over 5.9k Expr nodes, so this row watches probe
/// evaluation, which the isolate_* rows dilute. The activation
/// analysis and candidates are derived once, outside the timed body.
/// With opt.confidence enabled (the isolate-family CLI default) the
/// round also folds every frame into the batch-means windows.
struct ProbeRound {
  Netlist nl = make_parametric_datapath({64, 4, 8, true});
  ExprPool pool;
  NetVarMap vars;
  IsolationOptions opt;
  std::vector<IsolationCandidate> cands;

  ProbeRound() {
    const ActivationAnalysis analysis = derive_activation(nl, pool, vars, opt.activation);
    cands = identify_candidates(nl, combinational_blocks(nl), analysis, pool, opt.candidates);
    opt.sim_cycles = 64 * 256;
    opt.warmup_cycles = 0;
    opt.lane_stimuli = [](unsigned lane) {
      return std::make_unique<UniformStimulus>(sweep_lane_seed(7, lane));
    };
  }

  std::uint64_t run() {
    SavingsEstimator estimator(nl, pool, vars, cands, opt.power);
    return measure_activity(nl, &pool, &vars, opt, [&](ProbeHost& sim) {
             estimator.register_probes(sim);
           }).cycles;
  }
};

obs::JsonValue row_to_json(const BenchRow& r) {
  obs::JsonValue row = obs::JsonValue::object();
  row["wall_ms"] = r.wall_ms;
  row["lane_cycles"] = r.lane_cycles;
  row["stimulus_words"] = r.stimulus_words;
  row["lane_cycles_per_sec"] = r.lane_cycles_per_sec;
  return row;
}

/// Same destination/disable convention as bench_util.hpp emit_json.
void emit(const std::vector<BenchRow>& rows) {
  std::string dir = ".";
  if (const char* env = std::getenv("OPISO_BENCH_JSON_DIR")) {
    if (env[0] == '\0') return;
    dir = env;
  }
  const std::string path = dir + "/BENCH_sweep.json";
  obs::JsonValue doc = obs::JsonValue::object();
  doc["schema"] = "opiso.bench_sweep/v1";
  doc["envelope"] = bench::bench_envelope("opiso.bench_sweep/v1");
  doc["bench"] = "sweep";
  obs::JsonValue benches = obs::JsonValue::object();
  for (const BenchRow& r : rows) benches[r.name] = row_to_json(r);
  doc["benches"] = std::move(benches);
  doc["metrics"] = obs::metrics().snapshot();
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  doc.write(os, 1);
  os << '\n';
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main() {
  std::printf("Sweep / isolation perf trajectory (best of %d reps):\n", kReps);
  std::vector<BenchRow> rows;
  rows.push_back(time_bench("sweep_parallel", [] { return run_sweep_once(64, 16384); }));
  rows.push_back(time_bench("isolate_full", run_isolate_once));
  rows.push_back(time_bench("isolate_wide", run_isolate_wide_once));
  ProbeRound round;
  rows.push_back(time_bench("probe_round", [&] { return round.run(); }));
  round.opt.confidence.enabled = true;
  rows.push_back(time_bench("confidence_round", [&] { return round.run(); }));
  emit(rows);
  return 0;
}
