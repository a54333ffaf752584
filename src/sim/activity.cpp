#include "sim/activity.hpp"

// Compiled with -ffp-contract=off (src/sim/CMakeLists.txt), like
// obs/confidence.cpp: the report sections' derived figures must be the
// same IEEE operation sequence on every build of the same source.

#include <algorithm>

#include "util/error.hpp"

namespace opiso {

BoolVar NetVarMap::var_of(const Netlist& nl, NetId net) {
  OPISO_REQUIRE(nl.net(net).width == 1, "NetVarMap: only 1-bit nets can be Boolean variables");
  if (var_by_net_.size() < nl.num_nets()) var_by_net_.resize(nl.num_nets(), kNoVar);
  BoolVar& slot = var_by_net_[net.value()];
  if (slot == kNoVar) {
    slot = static_cast<BoolVar>(nets_.size());
    nets_.push_back(net);
  }
  return slot;
}

NetId NetVarMap::net_of(BoolVar v) const {
  OPISO_REQUIRE(v < nets_.size(), "NetVarMap: unknown variable");
  return nets_[v];
}

double ActivityStats::toggle_rate(NetId net) const {
  OPISO_REQUIRE(cycles > 0, "toggle_rate: no simulated cycles");
  OPISO_REQUIRE(net.value() < toggles.size(), "toggle_rate: unknown net");
  return static_cast<double>(toggles[net.value()]) / static_cast<double>(cycles);
}

double ActivityStats::probe_probability(std::size_t probe) const {
  OPISO_REQUIRE(cycles > 0, "probe_probability: no simulated cycles");
  OPISO_REQUIRE(probe < probe_true.size(), "probe_probability: unknown probe");
  return static_cast<double>(probe_true[probe]) / static_cast<double>(cycles);
}

double ActivityStats::probe_toggle_rate(std::size_t probe) const {
  OPISO_REQUIRE(cycles > 0, "probe_toggle_rate: no simulated cycles");
  OPISO_REQUIRE(probe < probe_toggles.size(), "probe_toggle_rate: unknown probe");
  return static_cast<double>(probe_toggles[probe]) / static_cast<double>(cycles);
}

void ActivityStats::merge(const ActivityStats& other) {
  if (toggles.empty() && probe_true.empty()) {
    *this = other;
    return;
  }
  OPISO_REQUIRE(toggles.size() == other.toggles.size(),
                "ActivityStats::merge: statistics cover different netlists");
  OPISO_REQUIRE(probe_true.size() == other.probe_true.size(),
                "ActivityStats::merge: statistics cover different probe sets");
  cycles += other.cycles;
  for (std::size_t n = 0; n < toggles.size(); ++n) toggles[n] += other.toggles[n];
  for (std::size_t p = 0; p < probe_true.size(); ++p) {
    probe_true[p] += other.probe_true[p];
    probe_toggles[p] += other.probe_toggles[p];
  }
  windows.merge(other.windows);
}

void ActivityStats::reset() {
  cycles = 0;
  std::fill(toggles.begin(), toggles.end(), 0);
  std::fill(probe_true.begin(), probe_true.end(), 0);
  std::fill(probe_toggles.begin(), probe_toggles.end(), 0);
  windows.reset();
}

obs::JsonValue build_confidence_section(const Netlist& nl, const ActivityStats& stats,
                                        const obs::ConfidenceConfig& config,
                                        const std::vector<double>& net_power_weights_mw,
                                        double static_power_mw) {
  using obs::JsonValue;
  const obs::WindowCounts& windows = stats.windows;
  OPISO_REQUIRE(windows.frames() == 0 || windows.num_nets() == nl.num_nets(),
                "build_confidence_section: statistics of a different netlist");
  JsonValue section = JsonValue::object();
  section["schema"] = "opiso.confidence/v1";
  section["level"] = config.level;
  section["batch_frames"] = config.batch_frames;
  const std::uint64_t lanes = windows.frames() > 0 ? stats.cycles / windows.frames() : 0;
  section["frames"] = windows.frames();
  section["batches"] = windows.complete_windows();
  section["lanes"] = lanes;
  section["cycles"] = stats.cycles;

  if (windows.enabled() && !net_power_weights_mw.empty()) {
    const obs::SeriesInterval pw =
        obs::weighted_interval(windows, net_power_weights_mw, lanes, config.level);
    JsonValue power = JsonValue::object();
    power["mean_mw"] = static_power_mw + pw.mean;
    power["ci_halfwidth_mw"] = pw.halfwidth;
    power["batches"] = pw.batches;
    if (config.min_power_ci_halfwidth_mw >= 0.0) {
      power["min_ci_halfwidth_mw"] = config.min_power_ci_halfwidth_mw;
      power["converged"] = pw.batches >= 2 && pw.halfwidth <= config.min_power_ci_halfwidth_mw;
    }
    section["power_mw"] = std::move(power);
  }

  JsonValue nets = JsonValue::array();
  double max_half = 0.0;
  double sum_half = 0.0;
  if (windows.enabled()) {
    for (NetId id : nl.net_ids()) {
      const obs::SeriesInterval iv = obs::batch_interval(windows, id.value(), lanes, config.level);
      JsonValue row = JsonValue::object();
      row["net"] = nl.net(id).name;
      row["toggle_rate"] = iv.mean;
      row["ci_halfwidth"] = iv.halfwidth;
      nets.push_back(std::move(row));
      max_half = std::max(max_half, iv.halfwidth);
      sum_half += iv.halfwidth;
    }
  }
  JsonValue net_summary = JsonValue::object();
  net_summary["max_ci_halfwidth"] = max_half;
  net_summary["mean_ci_halfwidth"] =
      nets.size() > 0 ? sum_half / static_cast<double>(nets.size()) : 0.0;
  net_summary["nets"] = std::move(nets);
  section["net_toggle_rate"] = std::move(net_summary);
  return section;
}

bool confidence_converged(const obs::JsonValue& section) {
  if (!section.contains("power_mw")) return true;
  const obs::JsonValue& power = section.at("power_mw");
  return !power.contains("converged") || power.at("converged").as_bool();
}

obs::JsonValue build_coverage_section(const Netlist& nl, const ActivityStats& stats,
                                      const std::vector<CandidateExercise>& candidates) {
  using obs::JsonValue;
  JsonValue section = JsonValue::object();
  section["schema"] = "opiso.coverage/v1";
  section["cycles"] = stats.cycles;

  JsonValue never = JsonValue::array();
  for (std::size_t n = 0; n < stats.toggles.size(); ++n) {
    if (stats.toggles[n] == 0) never.push_back(nl.net(NetId(static_cast<std::uint32_t>(n))).name);
  }
  const std::size_t total = stats.toggles.size();
  const std::size_t toggled = total - never.size();
  section["nets_total"] = total;
  section["nets_toggled"] = toggled;
  section["toggle_coverage_pct"] =
      total == 0 ? 100.0 : 100.0 * static_cast<double>(toggled) / static_cast<double>(total);
  section["never_toggled"] = std::move(never);

  JsonValue cands = JsonValue::array();
  for (const CandidateExercise& c : candidates) {
    const std::uint64_t active = c.probe < stats.probe_true.size() ? stats.probe_true[c.probe] : 0;
    JsonValue row = JsonValue::object();
    row["cell"] = c.cell;
    row["active_cycles"] = active;
    row["idle_cycles"] = stats.cycles >= active ? stats.cycles - active : 0;
    row["activation_toggles"] =
        c.probe < stats.probe_toggles.size() ? stats.probe_toggles[c.probe] : 0;
    row["pr_active"] =
        stats.cycles > 0 ? static_cast<double>(active) / static_cast<double>(stats.cycles) : 0.0;
    // Exercised means the stimulus visited both regimes the savings
    // model needs: at least one active and one idle cycle.
    row["exercised"] = active > 0 && active < stats.cycles;
    cands.push_back(std::move(row));
  }
  section["candidates"] = std::move(cands);
  return section;
}

}  // namespace opiso
