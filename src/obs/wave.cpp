#include "obs/wave.hpp"

#include <algorithm>
#include <iomanip>
#include <numeric>
#include <ostream>
#include <string>

#include "util/error.hpp"

namespace opiso::obs {

namespace {

// Fold a per-sample series K-to-1 (exact integer sums; the last emitted
// sample may cover fewer capture samples).
std::vector<std::uint64_t> fold_series(const std::vector<std::uint64_t>& series, std::size_t k) {
  if (k <= 1) return series;
  std::vector<std::uint64_t> out;
  out.reserve((series.size() + k - 1) / k);
  for (std::size_t s = 0; s < series.size(); s += k) {
    std::uint64_t acc = 0;
    for (std::size_t j = s; j < std::min(series.size(), s + k); ++j) acc += series[j];
    out.push_back(acc);
  }
  return out;
}

std::size_t decimation_factor(std::size_t num_samples, std::size_t max_samples) {
  if (max_samples == 0 || num_samples <= max_samples) return 1;
  return (num_samples + max_samples - 1) / max_samples;
}

JsonValue to_json_array(const std::vector<std::uint64_t>& v) {
  JsonValue arr = JsonValue::array();
  for (std::uint64_t x : v) arr.push_back(x);
  return arr;
}

std::vector<std::uint64_t> cycle_starts(const std::vector<std::uint64_t>& cycles) {
  std::vector<std::uint64_t> starts(cycles.size());
  std::uint64_t c = 0;
  for (std::size_t s = 0; s < cycles.size(); ++s) {
    starts[s] = c;
    c += cycles[s];
  }
  return starts;
}

/// Cells ranked hottest-first: by total energy descending, cell id
/// ascending on ties (deterministic).
std::vector<std::size_t> rank_cells(const PowerTrace& pt) {
  std::vector<std::size_t> order(pt.cell_total_fj.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return pt.cell_total_fj[a] > pt.cell_total_fj[b];
  });
  return order;
}

}  // namespace

JsonValue build_power_trace_section(const Netlist& nl, const PowerTrace& pt,
                                    std::string_view design, std::size_t max_samples,
                                    std::size_t top_cells) {
  OPISO_REQUIRE(pt.cell_fj.size() == nl.num_cells(),
                "build_power_trace_section: trace does not match the netlist");
  const std::size_t k = decimation_factor(pt.num_samples(), max_samples);
  const std::vector<std::uint64_t> cycles = fold_series(pt.sample_cycles, k);

  JsonValue doc = JsonValue::object();
  doc["schema"] = "opiso.power_trace/v1";
  doc["design"] = design;
  doc["cycles"] = pt.cycles;
  doc["lanes"] = pt.lanes;
  doc["window"] = pt.window;
  doc["decimation"] = static_cast<std::uint64_t>(k);
  doc["clock_freq_mhz"] = pt.clock_freq_mhz;
  doc["total_energy_fj"] = pt.total_energy_fj;
  doc["avg_power_mw"] = pt.avg_power_mw();

  JsonValue samples = JsonValue::object();
  samples["count"] = static_cast<std::uint64_t>(cycles.size());
  samples["cycle_start"] = to_json_array(cycle_starts(cycles));
  samples["cycles"] = to_json_array(cycles);
  samples["total_fj"] = to_json_array(fold_series(pt.total_fj, k));
  samples["arith_fj"] = to_json_array(fold_series(pt.arith_fj, k));
  samples["steering_fj"] = to_json_array(fold_series(pt.steering_fj, k));
  samples["sequential_fj"] = to_json_array(fold_series(pt.sequential_fj, k));
  samples["isolation_fj"] = to_json_array(fold_series(pt.isolation_fj, k));
  doc["samples"] = std::move(samples);

  const std::vector<std::size_t> order = rank_cells(pt);
  JsonValue cells = JsonValue::array();
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    const std::size_t ci = order[rank];
    const Cell& c = nl.cell(CellId{static_cast<std::uint32_t>(ci)});
    JsonValue row = JsonValue::object();
    row["cell"] = c.name;
    row["kind"] = cell_kind_name(c.kind);
    row["width"] = c.width;
    row["candidate"] = cell_kind_is_arith(c.kind);
    row["total_fj"] = pt.cell_total_fj[ci];
    row["total_toggles"] = pt.cell_total_toggles[ci];
    if (rank < top_cells) {
      row["series_fj"] = to_json_array(fold_series(pt.cell_fj[ci], k));
      row["series_toggles"] = to_json_array(fold_series(pt.cell_toggles[ci], k));
    }
    cells.push_back(std::move(row));
  }
  doc["cells"] = std::move(cells);
  return doc;
}

void write_heatmap_table(std::ostream& os, const Netlist& nl, const PowerTrace& pt,
                         std::size_t max_rows) {
  const std::vector<std::size_t> order = rank_cells(pt);
  os << "  rank  cell                 kind      w  cand     toggles        energy_fj    %\n";
  const std::size_t rows = std::min(order.size(), max_rows);
  for (std::size_t rank = 0; rank < rows; ++rank) {
    const std::size_t ci = order[rank];
    const Cell& c = nl.cell(CellId{static_cast<std::uint32_t>(ci)});
    const double pct = pt.total_energy_fj > 0
                           ? 100.0 * static_cast<double>(pt.cell_total_fj[ci]) /
                                 static_cast<double>(pt.total_energy_fj)
                           : 0.0;
    os << "  " << std::setw(4) << rank + 1 << "  " << std::left << std::setw(20) << c.name
       << std::setw(8) << cell_kind_name(c.kind) << std::right << std::setw(3) << c.width
       << (cell_kind_is_arith(c.kind) ? "   yes" : "    no") << std::setw(12)
       << pt.cell_total_toggles[ci] << std::setw(17) << pt.cell_total_fj[ci] << "  "
       << std::fixed << std::setprecision(1) << std::setw(5) << pct << '\n';
    os.unsetf(std::ios::fixed);
    os << std::setprecision(6);
  }
  if (order.size() > rows) os << "  ... (" << order.size() - rows << " more cells)\n";
}

JsonValue build_wave_compare(const Netlist& orig_nl, const PowerTrace& orig,
                             const Netlist& iso_nl, const PowerTrace& iso,
                             std::span<const IsolationRecord> records, std::string_view design,
                             std::size_t max_samples) {
  OPISO_REQUIRE(orig.num_samples() == iso.num_samples() && orig.cycles == iso.cycles &&
                    orig.lanes == iso.lanes && orig.window == iso.window,
                "build_wave_compare: traces were captured with different run disciplines");

  JsonValue doc = JsonValue::object();
  doc["schema"] = "opiso.wave_compare/v1";
  doc["design"] = design;
  doc["cycles"] = orig.cycles;
  doc["lanes"] = orig.lanes;
  doc["window"] = orig.window;
  doc["clock_freq_mhz"] = orig.clock_freq_mhz;
  doc["original_total_fj"] = orig.total_energy_fj;
  doc["isolated_total_fj"] = iso.total_energy_fj;
  doc["reclaimed_total_fj"] = static_cast<std::int64_t>(orig.total_energy_fj) -
                              static_cast<std::int64_t>(iso.total_energy_fj);
  doc["original_avg_power_mw"] = orig.avg_power_mw();
  doc["isolated_avg_power_mw"] = iso.avg_power_mw();

  const std::size_t k = decimation_factor(orig.num_samples(), max_samples);
  const std::vector<std::uint64_t> cycles = fold_series(orig.sample_cycles, k);
  JsonValue samples = JsonValue::object();
  samples["count"] = static_cast<std::uint64_t>(cycles.size());
  samples["cycle_start"] = to_json_array(cycle_starts(cycles));
  samples["cycles"] = to_json_array(cycles);
  samples["original_fj"] = to_json_array(fold_series(orig.total_fj, k));
  samples["isolated_fj"] = to_json_array(fold_series(iso.total_fj, k));
  doc["samples"] = std::move(samples);

  // Idle intervals at capture resolution: maximal runs of consecutive
  // samples where the isolated design spent strictly less energy. Their
  // reclaimed sums, minus the overhead of the intervals where isolation
  // cost energy, telescope to reclaimed_total_fj exactly.
  JsonValue intervals = JsonValue::array();
  std::int64_t reclaimed_in_intervals = 0;
  {
    const std::vector<std::uint64_t> starts = cycle_starts(orig.sample_cycles);
    std::size_t s = 0;
    while (s < orig.num_samples()) {
      const std::int64_t d = static_cast<std::int64_t>(orig.total_fj[s]) -
                             static_cast<std::int64_t>(iso.total_fj[s]);
      if (d <= 0) {
        ++s;
        continue;
      }
      const std::size_t begin = s;
      std::int64_t reclaimed = 0;
      while (s < orig.num_samples()) {
        const std::int64_t ds = static_cast<std::int64_t>(orig.total_fj[s]) -
                                static_cast<std::int64_t>(iso.total_fj[s]);
        if (ds <= 0) break;
        reclaimed += ds;
        ++s;
      }
      const std::uint64_t start_cycle = starts[begin];
      const std::uint64_t end_cycle =
          starts[s - 1] + orig.sample_cycles[s - 1];  // exclusive
      JsonValue iv = JsonValue::object();
      iv["name"] = "idle[" + std::to_string(start_cycle) + "," + std::to_string(end_cycle) + ")";
      iv["start_cycle"] = start_cycle;
      iv["end_cycle"] = end_cycle;
      iv["samples"] = static_cast<std::uint64_t>(s - begin);
      iv["reclaimed_fj"] = reclaimed;
      intervals.push_back(std::move(iv));
      reclaimed_in_intervals += reclaimed;
    }
  }
  doc["idle_intervals"] = std::move(intervals);
  doc["reclaimed_in_intervals_fj"] = reclaimed_in_intervals;

  // Per-isolated-module ledger: the module's own energy drop against the
  // bank + activation-logic energy the transform added for it.
  JsonValue modules = JsonValue::array();
  for (const IsolationRecord& rec : records) {
    const Cell& cand = iso_nl.cell(rec.candidate);
    JsonValue m = JsonValue::object();
    m["cell"] = cand.name;
    m["style"] = isolation_style_name(rec.style);
    const CellId orig_id = orig_nl.find_cell(cand.name);
    const std::uint64_t before =
        orig_id.valid() ? orig.cell_total_fj[orig_id.value()] : std::uint64_t{0};
    const std::uint64_t after = iso.cell_total_fj[rec.candidate.value()];
    std::uint64_t overhead = 0;
    for (CellId b : rec.bank_cells) overhead += iso.cell_total_fj[b.value()];
    for (CellId l : rec.logic_cells) overhead += iso.cell_total_fj[l.value()];
    m["before_fj"] = before;
    m["after_fj"] = after;
    m["overhead_fj"] = overhead;
    m["net_reclaimed_fj"] = static_cast<std::int64_t>(before) - static_cast<std::int64_t>(after) -
                            static_cast<std::int64_t>(overhead);
    modules.push_back(std::move(m));
  }
  doc["isolated_modules"] = std::move(modules);
  return doc;
}

}  // namespace opiso::obs
