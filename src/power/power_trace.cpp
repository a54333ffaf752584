#include "power/power_trace.hpp"

#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace opiso {

namespace {
// The pJ coefficients are defined on a 0.001 pJ grid (macro_model.cpp:
// base + slope·w with millesimal constants and integer widths), so the
// nearest integer femtojoule IS the intended value; rounding only
// removes the binary representation error of e.g. 0.035·w.
std::int64_t to_fj(double pj) { return std::llround(pj * 1000.0); }
}  // namespace

std::int64_t energy_per_toggle_fj(const MacroPowerModel& model, CellKind kind, unsigned width,
                                  int port) {
  return to_fj(model.energy_per_toggle_pj(kind, width, port));
}

std::int64_t static_energy_fj(const MacroPowerModel& model, CellKind kind, unsigned width) {
  return to_fj(model.static_energy_pj(kind, width));
}

double PowerTrace::avg_power_mw() const {
  if (cycles == 0) return 0.0;
  const double pj = static_cast<double>(total_energy_fj) / 1000.0;
  return pj / static_cast<double>(lane_cycles()) * clock_freq_mhz * 1e-3;
}

std::uint64_t cell_energy_fj(const Netlist& nl, const ActivityStats& stats, CellId cell,
                             const MacroPowerModel& model) {
  const Cell& c = nl.cell(cell);
  std::uint64_t e = static_cast<std::uint64_t>(static_energy_fj(model, c.kind, c.width)) *
                    stats.cycles;
  for (std::size_t p = 0; p < c.ins.size(); ++p) {
    const std::uint64_t toggles = stats.toggles[c.ins[p].value()];
    e += static_cast<std::uint64_t>(
             energy_per_toggle_fj(model, c.kind, c.width, static_cast<int>(p))) *
         toggles;
  }
  return e;
}

PowerTrace compute_power_trace(const Netlist& nl, const CycleTrace& trace,
                               const MacroPowerModel& model) {
  OPISO_SPAN("power.trace");
  const obs::WindowCounts& windows = trace.windows();
  OPISO_REQUIRE(windows.frames() == 0 || windows.num_nets() == nl.num_nets(),
                "compute_power_trace: trace was captured from a different netlist");
  const std::size_t ns = windows.num_windows();
  const std::size_t nc = nl.num_cells();

  PowerTrace pt;
  pt.cycles = windows.frames();
  pt.lanes = trace.lanes() == 0 ? 1 : trace.lanes();
  pt.window = windows.width();
  pt.clock_freq_mhz = model.clock_freq_mhz;
  pt.sample_cycles.resize(ns);
  pt.total_fj.assign(ns, 0);
  pt.arith_fj.assign(ns, 0);
  pt.steering_fj.assign(ns, 0);
  pt.sequential_fj.assign(ns, 0);
  pt.isolation_fj.assign(ns, 0);
  pt.cell_fj.assign(nc, {});
  pt.cell_toggles.assign(nc, {});
  pt.cell_total_fj.assign(nc, 0);
  pt.cell_total_toggles.assign(nc, 0);
  for (std::size_t s = 0; s < ns; ++s) pt.sample_cycles[s] = windows.frames_in(s);

  // Hoist the integer coefficients out of the sample loop: one static +
  // per-port toggle coefficient per cell, fixed for the whole trace.
  std::vector<std::uint64_t> stat_fj(nc);
  std::vector<std::vector<std::uint64_t>> port_fj(nc);
  for (CellId id : nl.cell_ids()) {
    const Cell& c = nl.cell(id);
    stat_fj[id.value()] =
        static_cast<std::uint64_t>(static_energy_fj(model, c.kind, c.width));
    auto& pf = port_fj[id.value()];
    pf.reserve(c.ins.size());
    for (std::size_t p = 0; p < c.ins.size(); ++p) {
      pf.push_back(static_cast<std::uint64_t>(
          energy_per_toggle_fj(model, c.kind, c.width, static_cast<int>(p))));
    }
  }

  for (CellId id : nl.cell_ids()) {
    const Cell& c = nl.cell(id);
    const std::size_t ci = id.value();
    auto& cell_series = pt.cell_fj[ci];
    auto& tog_series = pt.cell_toggles[ci];
    cell_series.assign(ns, 0);
    tog_series.assign(ns, 0);
    for (std::size_t s = 0; s < ns; ++s) {
      const std::span<const std::uint64_t> toggles = windows.nets(s);
      const std::uint64_t lc = pt.sample_cycles[s] * pt.lanes;
      std::uint64_t e = stat_fj[ci] * lc;
      std::uint64_t tog = 0;
      for (std::size_t p = 0; p < c.ins.size(); ++p) {
        const std::uint64_t t = toggles[c.ins[p].value()];
        e += port_fj[ci][p] * t;
        tog += t;
      }
      cell_series[s] = e;
      tog_series[s] = tog;
      pt.cell_total_fj[ci] += e;
      pt.cell_total_toggles[ci] += tog;
      pt.total_fj[s] += e;
      if (cell_kind_is_arith(c.kind)) {
        pt.arith_fj[s] += e;
      } else if (cell_kind_is_isolation(c.kind)) {
        pt.isolation_fj[s] += e;
      } else if (c.kind == CellKind::Reg || c.kind == CellKind::Latch) {
        pt.sequential_fj[s] += e;
      } else {
        pt.steering_fj[s] += e;
      }
    }
    pt.total_energy_fj += pt.cell_total_fj[ci];
  }
  obs::metrics().counter("power.traces").add(1);
  obs::metrics().counter("power.trace_samples").add(ns);
  return pt;
}

}  // namespace opiso
