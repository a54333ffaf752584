#pragma once
// Shared harness for the table benchmarks: runs the full isolation flow
// for every isolation style on one design and prints the paper's table
// layout (power / %reduction / area / %increase / slack / %reduction).
//
// Each table benchmark also emits a machine-readable BENCH_<name>.json
// (rows plus per-iteration power trajectories and a metrics snapshot)
// so reproduction results are diffable artifacts. Destination directory
// comes from $OPISO_BENCH_JSON_DIR (default: current directory); set it
// to the empty string to disable emission.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "isolation/algorithm.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "util/parallel_for.hpp"

namespace opiso::bench {

struct StyleRow {
  std::string label;
  double power_mw = 0.0;
  double power_red_pct = 0.0;  // vs non-isolated
  double area_um2 = 0.0;
  double area_inc_pct = 0.0;
  double slack_ns = 0.0;
  double slack_red_pct = 0.0;
  std::size_t modules_isolated = 0;
  /// Total measured power at the start of each Algorithm-1 iteration —
  /// the optimization trajectory behind the final number.
  std::vector<double> power_trajectory_mw;
};

struct TableResult {
  StyleRow baseline;  ///< non-isolated
  std::vector<StyleRow> rows;
};

/// Runs the Algorithm-1 flow once per style (plus the per-candidate
/// MIXED style extension) and assembles the table. The style flows are
/// independent, so they fan out through parallel_for; rows are reduced
/// in style order, making the table identical to a sequential run.
/// `stimuli` must therefore be pure (each call returns a fresh,
/// identically seeded generator) — every caller passes a seed-
/// constructing lambda, which is exactly that.
inline TableResult run_style_table(const Netlist& design, const StimulusFactory& stimuli,
                                   IsolationOptions opt, bool include_mixed = true) {
  struct Flow {
    std::string label;
    IsolationOptions opt;
  };
  std::vector<Flow> flows;
  for (IsolationStyle style :
       {IsolationStyle::And, IsolationStyle::Or, IsolationStyle::Latch}) {
    opt.style = style;
    opt.choose_style_per_candidate = false;
    flows.push_back({std::string(isolation_style_name(style)) + "-isolated", opt});
  }
  if (include_mixed) {
    opt.choose_style_per_candidate = true;
    flows.push_back({"MIX-isolated", opt});
  }

  std::vector<IsolationResult> results(flows.size());
  parallel_for(0, flows.size(), [&](std::size_t i) {
    results[i] = run_operand_isolation(design, stimuli, flows[i].opt);
  });

  TableResult table;
  const IsolationResult& first = results.front();
  table.baseline = StyleRow{"non-isolated", first.power_before_mw,   0.0,
                            first.area_before_um2,  0.0, first.slack_before_ns, 0.0, 0};
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const IsolationResult& res = results[i];
    StyleRow row;
    row.label = flows[i].label;
    row.power_mw = res.power_after_mw;
    row.power_red_pct = res.power_reduction_pct();
    row.area_um2 = res.area_after_um2;
    row.area_inc_pct = res.area_increase_pct();
    row.slack_ns = res.slack_after_ns;
    row.slack_red_pct = res.slack_reduction_pct();
    row.modules_isolated = res.records.size();
    for (const IterationLog& log : res.iterations) {
      row.power_trajectory_mw.push_back(log.total_power_mw);
    }
    table.rows.push_back(row);
  }
  return table;
}

inline void print_row(const StyleRow& r, bool baseline) {
  if (baseline) {
    std::printf("  %-14s %8.3f      n/a %10.0f      n/a %7.2f      n/a\n", r.label.c_str(),
                r.power_mw, r.area_um2, r.slack_ns);
  } else {
    std::printf("  %-14s %8.3f %7.2f%% %10.0f %7.2f%% %7.2f %7.2f%%   (%zu modules)\n",
                r.label.c_str(), r.power_mw, r.power_red_pct, r.area_um2, r.area_inc_pct,
                r.slack_ns, r.slack_red_pct, r.modules_isolated);
  }
}

inline void print_table(const std::string& title, const TableResult& table) {
  std::printf("%s\n", title.c_str());
  std::printf("  %-14s %8s %8s %10s %8s %7s %8s\n", "", "Power", "%red", "Area[um2]", "%inc",
              "Slack", "%red");
  print_row(table.baseline, true);
  for (const StyleRow& r : table.rows) print_row(r, false);
}

/// Versioned envelope stamped into every BENCH_*.json artifact
/// (schema opiso.bench/v1): which payload schema the tables follow,
/// which opiso build produced them (git describe, baked in at
/// configure time) and on what host architecture. CI perf gates pin
/// payload_schema/host_arch so a baseline from another schema
/// generation or machine class is rejected instead of silently
/// compared; opiso_version is informational (it changes every commit).
inline obs::JsonValue bench_envelope(const std::string& payload_schema) {
  obs::JsonValue env = obs::JsonValue::object();
  env["schema"] = "opiso.bench/v1";
  env["payload_schema"] = payload_schema;
#ifdef OPISO_GIT_DESCRIBE
  env["opiso_version"] = OPISO_GIT_DESCRIBE;
#else
  env["opiso_version"] = "unknown";
#endif
#ifdef OPISO_HOST_ARCH
  env["host_arch"] = OPISO_HOST_ARCH;
#else
  env["host_arch"] = "unknown";
#endif
  return env;
}

inline obs::JsonValue row_to_json(const StyleRow& r) {
  obs::JsonValue row = obs::JsonValue::object();
  row["label"] = r.label;
  row["power_mw"] = r.power_mw;
  row["power_reduction_pct"] = r.power_red_pct;
  row["area_um2"] = r.area_um2;
  row["area_increase_pct"] = r.area_inc_pct;
  row["slack_ns"] = r.slack_ns;
  row["slack_reduction_pct"] = r.slack_red_pct;
  row["modules_isolated"] = r.modules_isolated;
  obs::JsonValue traj = obs::JsonValue::array();
  for (double p : r.power_trajectory_mw) traj.push_back(p);
  row["power_trajectory_mw"] = std::move(traj);
  return row;
}

/// Write BENCH_<name>.json next to the table output (see header
/// comment for the destination/disable convention).
inline void emit_json(const std::string& name, const TableResult& table) {
  std::string dir = ".";
  if (const char* env = std::getenv("OPISO_BENCH_JSON_DIR")) {
    if (env[0] == '\0') return;  // explicitly disabled
    dir = env;
  }
  const std::string path = dir + "/BENCH_" + name + ".json";
  obs::JsonValue doc = obs::JsonValue::object();
  doc["schema"] = "opiso.bench_table/v1";
  doc["envelope"] = bench_envelope("opiso.bench_table/v1");
  doc["bench"] = name;
  doc["baseline"] = row_to_json(table.baseline);
  obs::JsonValue rows = obs::JsonValue::array();
  for (const StyleRow& r : table.rows) rows.push_back(row_to_json(r));
  doc["rows"] = std::move(rows);
  doc["metrics"] = obs::metrics().snapshot();
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return;
  }
  doc.write(os, 1);
  os << '\n';
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace opiso::bench
