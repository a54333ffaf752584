// Convergence bench: how much simulation is enough?
//
// Two experiments, both fully deterministic (fixed seeds, no timing
// fields), emitted as BENCH_confidence.json (schema
// opiso.bench_confidence/v1 inside the opiso.bench/v1 envelope):
//
//  1. CI-vs-cycles curves — for design1, design2 and fir4, measure the
//     design-power 95% batch-means confidence interval at a ladder of
//     cycle counts. The half-width shrinks like 1/sqrt(cycles); the
//     curve shows where it crosses 1% of the mean, i.e. the cheapest
//     run length whose power figure deserves two significant digits.
//
//  2. Table 1/2 ranking stabilization — rerun the full Algorithm-1
//     flow per isolation style (AND / OR / latch) at each ladder rung
//     and record the style ranking by power reduction. The reported
//     number is the smallest cycle count from which the ranking never
//     changes again (matches the longest run), plus the rung where the
//     ranking is *resolved*: adjacent styles' power CIs stop
//     overlapping, so the order is statistically meaningful and not
//     a seed artifact. This quantifies a question the paper leaves
//     open: its tables fix one simulation length and report a
//     latch-vs-AND/OR ordering without saying how much stimulus that
//     ordering needs to be trustworthy.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "designs/designs.hpp"
#include "frontend/rtl_parser.hpp"
#include "isolation/algorithm.hpp"
#include "obs/confidence.hpp"
#include "power/estimator.hpp"
#include "sim/parallel_sim.hpp"
#include "sim/stimulus.hpp"

namespace {

using namespace opiso;

constexpr std::uint32_t kBatchFrames = 16;
constexpr double kLevel = 0.95;

const std::uint64_t kCurveLadder[] = {1024, 2048, 4096, 8192, 16384, 32768, 65536};
const std::uint64_t kRankLadder[] = {512, 1024, 2048, 4096, 8192, 16384, 32768};

/// One experiment subject: the design plus the *same* stimulus and cost
/// weights its table reproduction uses (bench_table1/bench_table2), so
/// the convergence numbers answer "how long do Tables 1/2 need", not
/// "how long does some other testbench need". fir4 has no table; it
/// runs under the plain isolate-discipline stimulus.
struct Subject {
  std::string name;
  Netlist netlist;
  StimulusFactory stimuli;
  IsolationOptions options;
};

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
    s.options.omega_p = 1.0;
    s.options.omega_a = 0.05;
  } else if (name == "design2") {
    s.netlist = make_design2(8, 2);
    s.stimuli = [] {
      auto comp = std::make_unique<CompositeStimulus>(std::make_unique<UniformStimulus>(2001));
      comp->route("start", std::make_unique<ControlledBitStimulus>(0.45, 0.2, 2002));
      return comp;
    };
    s.options.omega_p = 1.0;
    s.options.omega_a = 0.05;
  } else if (name == "fir4") {
#ifdef OPISO_RTL_DIR
    s.netlist = parse_rtl_file(std::string(OPISO_RTL_DIR) + "/fir4.rtl");
#else
    std::fprintf(stderr, "bench_confidence: fir4 needs OPISO_RTL_DIR\n");
    std::exit(1);
#endif
    s.stimuli = [] { return std::make_unique<UniformStimulus>(1); };
  } else {
    std::fprintf(stderr, "bench_confidence: unknown design %s\n", name.c_str());
    std::exit(1);
  }
  return s;
}

struct CurvePoint {
  std::uint64_t cycles = 0;
  double mean_mw = 0.0;
  double halfwidth_mw = 0.0;
  std::uint64_t batches = 0;
};

/// One measurement on the subject's own single stimulus stream (one
/// lane) with batch statistics on.
CurvePoint measure_point(const Subject& s, std::uint64_t cycles) {
  ParallelSimulator sim(s.netlist, 1);
  sim.enable_batch_stats(kBatchFrames);
  sim.set_stimulus([&s](unsigned) { return s.stimuli(); });
  sim.run(cycles);
  const ActivityStats stats = sim.stats();
  const PowerEstimator estimator;
  const obs::SeriesInterval iv = obs::weighted_interval(
      stats.windows, estimator.net_toggle_weights(s.netlist), /*lanes=*/1, kLevel);
  // Centred on the design power: static term plus the toggle-driven sum.
  return {cycles, estimator.static_mw(s.netlist) + iv.mean, iv.halfwidth, iv.batches};
}

obs::JsonValue curve_json(const Subject& s, std::uint64_t* cycles_to_1pct) {
  std::printf("  %s:\n", s.name.c_str());
  obs::JsonValue points = obs::JsonValue::array();
  *cycles_to_1pct = 0;
  for (std::uint64_t cycles : kCurveLadder) {
    const CurvePoint p = measure_point(s, cycles);
    const double rel_pct = p.mean_mw > 0.0 ? 100.0 * p.halfwidth_mw / p.mean_mw : 0.0;
    if (*cycles_to_1pct == 0 && rel_pct <= 1.0) *cycles_to_1pct = cycles;
    std::printf("    %7llu cycles: %8.4f mW +/- %.4f (%.2f%%, %llu batches)\n",
                static_cast<unsigned long long>(p.cycles), p.mean_mw, p.halfwidth_mw, rel_pct,
                static_cast<unsigned long long>(p.batches));
    obs::JsonValue row = obs::JsonValue::object();
    row["cycles"] = p.cycles;
    row["power_mean_mw"] = p.mean_mw;
    row["ci_halfwidth_mw"] = p.halfwidth_mw;
    row["ci_rel_pct"] = rel_pct;
    row["batches"] = p.batches;
    points.push_back(std::move(row));
  }
  obs::JsonValue curve = obs::JsonValue::object();
  curve["points"] = std::move(points);
  curve["cycles_to_1pct_ci"] = *cycles_to_1pct;
  return curve;
}

struct StyleOutcome {
  std::string label;
  double power_after_mw = 0.0;
  double reduction_pct = 0.0;
  double ci_halfwidth_mw = 0.0;
};

StyleOutcome run_style(const Subject& s, IsolationStyle style, std::uint64_t cycles) {
  IsolationOptions opt = s.options;
  opt.style = style;
  opt.sim_cycles = cycles;
  opt.confidence.enabled = true;
  opt.confidence.batch_frames = kBatchFrames;
  opt.confidence.level = kLevel;
  const IsolationResult res = run_operand_isolation(s.netlist, s.stimuli, opt);
  StyleOutcome out;
  out.label = std::string(isolation_style_name(style));
  out.power_after_mw = res.power_after_mw;
  out.reduction_pct = res.power_reduction_pct();
  if (!res.confidence.is_null()) {
    out.ci_halfwidth_mw = res.confidence.at("power_mw").at("ci_halfwidth_mw").as_number();
  }
  return out;
}

/// Style order at one cycle count, best reduction first. Rendered as
/// "and>latch>or" so orders compare as strings.
std::string ranking_of(const std::vector<StyleOutcome>& styles) {
  std::vector<std::size_t> order(styles.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (styles[a].reduction_pct != styles[b].reduction_pct) {
      return styles[a].reduction_pct > styles[b].reduction_pct;
    }
    return styles[a].label < styles[b].label;
  });
  std::string out;
  for (std::size_t i : order) {
    if (!out.empty()) out += '>';
    out += styles[i].label;
  }
  return out;
}

/// Adjacent styles in the ranking are *resolved* when their power CIs
/// are disjoint: the ordering cannot flip within the intervals.
bool ranking_resolved(std::vector<StyleOutcome> styles) {
  std::sort(styles.begin(), styles.end(), [](const StyleOutcome& a, const StyleOutcome& b) {
    return a.power_after_mw < b.power_after_mw;
  });
  for (std::size_t i = 0; i + 1 < styles.size(); ++i) {
    const double gap = styles[i + 1].power_after_mw - styles[i].power_after_mw;
    if (gap <= styles[i].ci_halfwidth_mw + styles[i + 1].ci_halfwidth_mw) return false;
  }
  return true;
}

obs::JsonValue ranking_json(const Subject& s, std::uint64_t* stabilized_at,
                            std::uint64_t* resolved_at) {
  std::printf("  %s:\n", s.name.c_str());
  std::vector<std::string> orders;
  std::vector<bool> resolved;
  obs::JsonValue rungs = obs::JsonValue::array();
  for (std::uint64_t cycles : kRankLadder) {
    std::vector<StyleOutcome> styles;
    for (IsolationStyle style :
         {IsolationStyle::And, IsolationStyle::Or, IsolationStyle::Latch}) {
      styles.push_back(run_style(s, style, cycles));
    }
    orders.push_back(ranking_of(styles));
    resolved.push_back(ranking_resolved(styles));
    std::printf("    %7llu cycles: %-16s %s\n", static_cast<unsigned long long>(cycles),
                orders.back().c_str(), resolved.back() ? "(CIs disjoint)" : "(CIs overlap)");
    obs::JsonValue rung = obs::JsonValue::object();
    rung["cycles"] = cycles;
    rung["ranking"] = orders.back();
    rung["cis_disjoint"] = static_cast<bool>(resolved.back());
    obs::JsonValue srows = obs::JsonValue::array();
    for (const StyleOutcome& st : styles) {
      obs::JsonValue r = obs::JsonValue::object();
      r["style"] = st.label;
      r["power_after_mw"] = st.power_after_mw;
      r["power_reduction_pct"] = st.reduction_pct;
      r["ci_halfwidth_mw"] = st.ci_halfwidth_mw;
      srows.push_back(std::move(r));
    }
    rung["styles"] = std::move(srows);
    rungs.push_back(std::move(rung));
  }

  // Stabilized: the ranking matches the longest run's from this rung
  // on. Resolved: additionally, every rung from here on has disjoint
  // CIs (0 = never within the ladder).
  const std::string& final_order = orders.back();
  const std::size_t n = orders.size();
  *stabilized_at = 0;
  *resolved_at = 0;
  for (std::size_t i = n; i-- > 0;) {
    if (orders[i] != final_order) break;
    *stabilized_at = kRankLadder[i];
  }
  for (std::size_t i = n; i-- > 0;) {
    if (orders[i] != final_order || !resolved[i]) break;
    *resolved_at = kRankLadder[i];
  }

  obs::JsonValue doc = obs::JsonValue::object();
  doc["rungs"] = std::move(rungs);
  doc["final_ranking"] = final_order;
  doc["stabilized_at_cycles"] = *stabilized_at;
  doc["resolved_at_cycles"] = *resolved_at;
  return doc;
}

void emit(const obs::JsonValue& curves, const obs::JsonValue& rankings) {
  std::string dir = ".";
  if (const char* env = std::getenv("OPISO_BENCH_JSON_DIR")) {
    if (env[0] == '\0') return;
    dir = env;
  }
  const std::string path = dir + "/BENCH_confidence.json";
  obs::JsonValue doc = obs::JsonValue::object();
  doc["schema"] = "opiso.bench_confidence/v1";
  doc["envelope"] = bench::bench_envelope("opiso.bench_confidence/v1");
  doc["bench"] = "confidence";
  doc["confidence_level"] = kLevel;
  doc["batch_frames"] = kBatchFrames;
  doc["curves"] = curves;
  doc["rankings"] = rankings;
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
  std::printf("Design-power CI half-width vs cycles (%.0f%% batch-means CI):\n", kLevel * 100);
  obs::JsonValue curves = obs::JsonValue::object();
  for (const char* name : {"design1", "design2", "fir4"}) {
    const Subject s = make_subject(name);
    std::uint64_t to_1pct = 0;
    curves[name] = curve_json(s, &to_1pct);
    if (to_1pct != 0) {
      std::printf("    -> 1%% relative CI reached at %llu cycles\n",
                  static_cast<unsigned long long>(to_1pct));
    }
  }

  std::printf("\nTable 1/2 style-ranking stabilization (AND / OR / latch):\n");
  obs::JsonValue rankings = obs::JsonValue::object();
  for (const char* name : {"design1", "design2"}) {
    const Subject s = make_subject(name);
    std::uint64_t stabilized = 0, resolved = 0;
    rankings[name] = ranking_json(s, &stabilized, &resolved);
    if (resolved != 0) {
      std::printf("    -> stable from %llu cycles, CI-resolved from %llu cycles\n",
                  static_cast<unsigned long long>(stabilized),
                  static_cast<unsigned long long>(resolved));
    } else {
      std::printf("    -> stable from %llu cycles, never CI-resolved through %llu cycles\n",
                  static_cast<unsigned long long>(stabilized),
                  static_cast<unsigned long long>(kRankLadder[std::size(kRankLadder) - 1]));
    }
  }

  emit(curves, rankings);
  return 0;
}
