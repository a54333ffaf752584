// Rewrite-ahead-of-isolation bench: does equality-saturation datapath
// rewriting buy net power beyond what operand isolation alone gets?
//
// For design1, design2 and fir4 the full Algorithm-1 flow runs twice —
// isolated-only and rewritten-then-isolated — under identical stimuli
// and cost weights. Both flows are measured against the same baseline
// (the original design's power under the isolate discipline), so the
// two net-reduction figures are directly comparable. The binary fails
// unless at least one design shows a strictly greater net reduction
// with rewriting on: that inequality is the acceptance criterion the
// rewrite engine exists to meet, and regressing it should break the
// build, not just bend a curve.
//
// Emitted as BENCH_rewrite.json (schema opiso.bench_rewrite/v1 inside
// the opiso.bench/v1 envelope). Wall-clock fields are gated by
// tools/perf_ab.py's same-host A/B of the base revision and the change;
// everything else is deterministic (fixed seeds, single-stream
// measurements) and gated structurally against the committed
// ci/bench_baseline snapshot.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>

#include "bench_util.hpp"
#include "designs/designs.hpp"
#include "frontend/rtl_parser.hpp"
#include "isolation/algorithm.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sim/stimulus.hpp"

namespace {

using namespace opiso;

struct Subject {
  std::string name;
  Netlist netlist;
  StimulusFactory stimuli;
  IsolationOptions options;
};

/// Same subjects (designs, stimuli, weights) as bench_confidence, so
/// the numbers line up with the table reproductions.
Subject make_subject(const std::string& name) {
  Subject s;
  s.name = name;
  if (name == "design1") {
    s.netlist = make_design1(8);
    s.stimuli = [] {
      auto comp = std::make_unique<CompositeStimulus>(std::make_unique<UniformStimulus>(1001));
      comp->route("act", std::make_unique<ControlledBitStimulus>(0.25, 0.2, 1002));
      comp->route("sel", std::make_unique<ControlledBitStimulus>(0.5, 0.4, 1003));
      comp->route("g1", std::make_unique<ControlledBitStimulus>(0.5, 0.3, 1004));
      comp->route("g2", std::make_unique<ControlledBitStimulus>(0.5, 0.3, 1005));
      return comp;
    };
    s.options.omega_a = 0.05;
  } else if (name == "design2") {
    s.netlist = make_design2(8, 2);
    s.stimuli = [] {
      auto comp = std::make_unique<CompositeStimulus>(std::make_unique<UniformStimulus>(2001));
      comp->route("start", std::make_unique<ControlledBitStimulus>(0.45, 0.2, 2002));
      return comp;
    };
    s.options.omega_a = 0.05;
  } else if (name == "fir4") {
#ifdef OPISO_RTL_DIR
    s.netlist = parse_rtl_file(std::string(OPISO_RTL_DIR) + "/fir4.rtl");
#else
    std::fprintf(stderr, "bench_rewrite: fir4 needs OPISO_RTL_DIR\n");
    std::exit(1);
#endif
    s.stimuli = [] { return std::make_unique<UniformStimulus>(1); };
  } else {
    std::fprintf(stderr, "bench_rewrite: unknown design %s\n", name.c_str());
    std::exit(1);
  }
  s.options.sim_cycles = 4096;
  s.options.confidence.enabled = false;
  return s;
}

struct FlowOutcome {
  IsolationResult result;
  double wall_ms = 0.0;
};

FlowOutcome run_flow(const Subject& s, bool rewrite) {
  IsolationOptions opt = s.options;
  opt.rewrite = rewrite;
  const auto t0 = std::chrono::steady_clock::now();
  FlowOutcome out{run_operand_isolation(s.netlist, s.stimuli, opt), 0.0};
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  return out;
}

obs::JsonValue flow_json(const FlowOutcome& f, double baseline_mw) {
  obs::JsonValue o = obs::JsonValue::object();
  o["power_after_mw"] = f.result.power_after_mw;
  o["net_reduction_pct"] =
      baseline_mw > 0 ? 100.0 * (baseline_mw - f.result.power_after_mw) / baseline_mw : 0.0;
  o["modules_isolated"] = f.result.records.size();
  o["wall_ms"] = f.wall_ms;
  return o;
}

void emit(obs::JsonValue designs, obs::JsonValue derived) {
  std::string dir = ".";
  if (const char* env = std::getenv("OPISO_BENCH_JSON_DIR")) {
    if (env[0] == '\0') return;
    dir = env;
  }
  const std::string path = dir + "/BENCH_rewrite.json";
  obs::JsonValue doc = obs::JsonValue::object();
  doc["schema"] = "opiso.bench_rewrite/v1";
  doc["envelope"] = bench::bench_envelope("opiso.bench_rewrite/v1");
  doc["bench"] = "rewrite";
  doc["designs"] = std::move(designs);
  doc["derived"] = std::move(derived);
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
  std::printf("Net power reduction, isolated-only vs rewritten-then-isolated:\n");
  obs::JsonValue designs = obs::JsonValue::object();
  std::string best_design;
  double best_advantage = 0.0;
  for (const char* name : {"design1", "design2", "fir4"}) {
    const Subject s = make_subject(name);
    const FlowOutcome iso = run_flow(s, /*rewrite=*/false);
    const FlowOutcome rw = run_flow(s, /*rewrite=*/true);
    // Both flows share one baseline: the original design's measured
    // power (both flows report it as power_before).
    const double baseline_mw = iso.result.power_before_mw;
    obs::JsonValue d = obs::JsonValue::object();
    d["baseline_power_mw"] = baseline_mw;
    d["isolated"] = flow_json(iso, baseline_mw);
    d["rewritten_isolated"] = flow_json(rw, baseline_mw);
    if (!rw.result.rewrite.is_null()) {
      obs::JsonValue r = obs::JsonValue::object();
      r["rewritten"] = rw.result.rewrite.at("rewritten").as_bool();
      r["verified"] = rw.result.rewrite.at("verified").as_bool();
      r["cells_before"] = rw.result.rewrite.at("cells").at("before");
      r["cells_after"] = rw.result.rewrite.at("cells").at("after");
      // The rewrite's exact work: held to the baseline with no band, so
      // a change that adds e-graph or proof work fails on any host.
      r["iterations"] = rw.result.rewrite.at("iterations");
      r["egraph"] = rw.result.rewrite.at("egraph");
      r["rules_fired"] = rw.result.rewrite.at("rules_fired");
      obs::JsonValue v = obs::JsonValue::object();
      v["obligations_checked"] = rw.result.rewrite.at("verify").at("obligations_checked");
      r["verify"] = std::move(v);
      d["rewrite"] = std::move(r);
    }
    const double red_iso = d.at("isolated").at("net_reduction_pct").as_number();
    const double red_rw = d.at("rewritten_isolated").at("net_reduction_pct").as_number();
    const double advantage = red_rw - red_iso;
    d["advantage_pct"] = advantage;
    std::printf("  %-8s baseline %7.3f mW | isolated %6.2f%% | rewritten+isolated %6.2f%% "
                "| advantage %+5.2f pp\n",
                name, baseline_mw, red_iso, red_rw, advantage);
    if (advantage > best_advantage) {
      best_advantage = advantage;
      best_design = name;
    }
    designs[name] = std::move(d);
  }

  obs::JsonValue derived = obs::JsonValue::object();
  derived["best_advantage_design"] = best_design;
  derived["best_advantage_pct"] = best_advantage;
  emit(std::move(designs), std::move(derived));

  // The acceptance gate: rewriting must beat isolated-only somewhere,
  // strictly. A rewrite engine that never changes the outcome is dead
  // weight and this bench is its tombstone.
  if (best_advantage <= 0.0) {
    std::fprintf(stderr,
                 "bench_rewrite: FAIL — no design shows a net-reduction advantage "
                 "from rewriting (best %+f pp)\n",
                 best_advantage);
    return 1;
  }
  std::printf("  -> best advantage: %s (%+.2f pp)\n", best_design.c_str(), best_advantage);
  return 0;
}
