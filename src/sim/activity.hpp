#pragma once
// Switching-activity statistics gathered during simulation.
//
// Tr (toggle rate) of a net is the average number of bit toggles per
// clock cycle observed over the simulation — exactly the quantity the
// paper's macro power models consume (Sec. 4.1).
//
// Expr probes evaluate arbitrary Boolean functions of net values each
// cycle and report Pr[expr] over the run; a 1-bit net's static
// probability Pr[net = 1] is the probability of a Var probe on it. The
// savings model needs joint probabilities of dependent signals
// (Pr(!f_i & f_j & g), Sec. 4.2/4.3); measuring product expressions
// in-simulation sidesteps any independence assumption, as the paper
// requires ("the probabilities cannot further be simplified").

#include <cstdint>
#include <vector>

#include "boolfn/expr.hpp"
#include "netlist/netlist.hpp"
#include "obs/confidence.hpp"
#include "obs/json.hpp"

namespace opiso {

/// Maps 1-bit nets to Boolean variables (shared by activation derivation,
/// probes, and activation-logic synthesis). Variables are allocated on
/// first use; the mapping is stable for the lifetime of the object.
class NetVarMap {
 public:
  /// Variable for a (1-bit) net; allocates on first use.
  BoolVar var_of(const Netlist& nl, NetId net);
  /// Net of an allocated variable.
  [[nodiscard]] NetId net_of(BoolVar v) const;
  [[nodiscard]] std::size_t num_vars() const { return nets_.size(); }
  static constexpr BoolVar kNoVar = 0xFFFFFFFFu;

 private:
  std::vector<NetId> nets_;                 ///< var -> net
  std::vector<BoolVar> var_by_net_;         ///< net.value() -> var (kNoVar = none)
};

struct ActivityStats {
  std::uint64_t cycles = 0;
  std::vector<std::uint64_t> toggles;    ///< per net: total bit toggles
  std::vector<std::uint64_t> probe_true; ///< per probe: cycles where expr held
  std::vector<std::uint64_t> probe_toggles; ///< per probe: value changes between cycles
  /// Batch-means windows behind the confidence layer (obs/confidence
  /// .hpp): exact per-window integer event counts for nets (bit
  /// toggles) and probes (lanes where the expression held). Disabled
  /// unless the engine was asked for them (enable_batch_stats); counted
  /// only over measured frames (reset drops the warmup's), and carried
  /// through merge so confidence intervals stay bitwise identical
  /// across engines and partitions.
  obs::WindowCounts windows;

  /// Average bit toggles per cycle over the whole word (the paper's Tr).
  [[nodiscard]] double toggle_rate(NetId net) const;
  /// Pr[probe expression] over the run.
  [[nodiscard]] double probe_probability(std::size_t probe) const;
  /// Toggle rate of the probe expression's value (per cycle).
  [[nodiscard]] double probe_toggle_rate(std::size_t probe) const;

  /// Element-wise accumulation of another run's statistics over the
  /// same netlist (and probe set, if any). Rates computed afterwards
  /// are averages over the combined cycle count — this is both the
  /// ordered reduction of the sweep runner and the oracle operation
  /// that makes N one-stream runs comparable to one N-lane run.
  /// An empty *this adopts the other side's shape.
  void merge(const ActivityStats& other);

  void reset();
};

/// Per-candidate activation-signal exercise counts for the coverage
/// section (filled by the isolation layer from its probe indices).
struct CandidateExercise {
  std::string cell;
  std::size_t probe = 0;  ///< activation probe (Pr[f_i]) index
};

/// `opiso.confidence/v1` report section: the design-power CI, per-net
/// toggle-rate CIs, and the convergence verdict when a gate is set.
/// `net_power_weights_mw` is the macro model's exact per-net dP/dTr
/// vector and `static_power_mw` its toggle-independent term
/// (power/estimator.hpp), so the design-power interval is centred on
/// the design's power; empty weights disable that interval.
[[nodiscard]] obs::JsonValue build_confidence_section(
    const Netlist& nl, const ActivityStats& stats, const obs::ConfidenceConfig& config,
    const std::vector<double>& net_power_weights_mw, double static_power_mw);
/// The convergence verdict of a section build_confidence_section
/// built: false iff its config set a minimum power CI half-width and
/// the design-power interval (`power_mw`, which carries the half-width
/// and batch count) missed it. True for a null section.
[[nodiscard]] bool confidence_converged(const obs::JsonValue& section);
/// `opiso.coverage/v1` report section: did the stimulus exercise the
/// design? Net toggle coverage (a net that never toggled feeds every
/// power estimate an untested zero rate), the never-toggled nets, and
/// per candidate whether its activation probe was seen both true and
/// false (the idle/active regimes the savings model reasons about).
[[nodiscard]] obs::JsonValue build_coverage_section(
    const Netlist& nl, const ActivityStats& stats,
    const std::vector<CandidateExercise>& candidates);

}  // namespace opiso
