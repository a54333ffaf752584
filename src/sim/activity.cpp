#include "sim/activity.hpp"

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
  net_batches.merge(other.net_batches);
  probe_batches.merge(other.probe_batches);
}

void ActivityStats::reset() {
  cycles = 0;
  std::fill(toggles.begin(), toggles.end(), 0);
  std::fill(probe_true.begin(), probe_true.end(), 0);
  std::fill(probe_toggles.begin(), probe_toggles.end(), 0);
  net_batches.reset();
  probe_batches.reset();
}

obs::JsonValue build_confidence_section(const Netlist& nl, const ActivityStats& stats,
                                        const obs::ConfidenceConfig& config,
                                        const std::vector<double>& net_power_weights_mw,
                                        double static_power_mw) {
  obs::ConfidenceInput input;
  input.nets = &stats.net_batches;
  input.cycles = stats.cycles;
  input.net_names.reserve(nl.num_nets());
  for (std::size_t n = 0; n < nl.num_nets(); ++n) {
    input.net_names.push_back(nl.net(NetId(static_cast<std::uint32_t>(n))).name);
  }
  input.power_weights_mw = net_power_weights_mw;
  input.static_power_mw = static_power_mw;
  input.config = config;
  return obs::build_confidence_section(input);
}

bool confidence_converged(const obs::JsonValue& section) {
  if (!section.contains("power_mw")) return true;
  const obs::JsonValue& power = section.at("power_mw");
  return !power.contains("converged") || power.at("converged").as_bool();
}

obs::JsonValue build_coverage_section(const Netlist& nl, const ActivityStats& stats,
                                      const std::vector<CandidateExercise>& candidates) {
  obs::CoverageInput input;
  input.cycles = stats.cycles;
  input.net_names.reserve(nl.num_nets());
  for (std::size_t n = 0; n < nl.num_nets(); ++n) {
    input.net_names.push_back(nl.net(NetId(static_cast<std::uint32_t>(n))).name);
  }
  input.net_toggles = stats.toggles;
  for (const CandidateExercise& c : candidates) {
    obs::CoverageInput::Candidate out;
    out.cell = c.cell;
    out.active_cycles = c.probe < stats.probe_true.size() ? stats.probe_true[c.probe] : 0;
    out.activation_toggles =
        c.probe < stats.probe_toggles.size() ? stats.probe_toggles[c.probe] : 0;
    input.candidates.push_back(std::move(out));
  }
  return obs::build_coverage_section(input);
}

}  // namespace opiso
