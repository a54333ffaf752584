#pragma once
// Power-savings estimation model — Sec. 4.
//
// All probabilities are *measured*: the estimator registers Expr probes
// on the simulator for every joint event the model needs — the paper is
// explicit that activation and multiplexing signals are statistically
// dependent, so products like Pr(!f_i & f_j & g) are evaluated per
// simulated cycle instead of being factored.
//
// Primary savings (saved inside the isolated module c_i):
//   Simple model (Eq. 1):   ΔP_p = Pr(!f_i) · p_i(TrA, TrB)
//   Refined model (Eq. 3 generalized): enumerate, per input port, the
//   steering events {connected to fanin candidate c_k & c_k active,
//   connected & c_k idle, fed from non-candidate sources}, and sum
//   Pr(!f_i & eventA & eventB) · p_i(rate(eventA), rate(eventB)) over
//   all event pairs. Rates of *isolated* fanin candidates use the
//   actual-toggle-rate rescaling of Eq. 2: Tr' = Tr / Pr(AS).
//
// Secondary savings (saved in fanout candidates c_j, Eqs. 4–5):
//   ΔP_s = Σ_j [ Pr(!f_i & f_j & g) · (p_j(Tr*, ..) − p_j(0, ..))
//              + (1−z_j) · Pr(!f_i & !f_j & g) · (p_j(Tr, ..) − p_j(0, ..)) ]
//   where g is the connection condition through the steering network,
//   z_j marks already-isolated fanout candidates, and Tr* is Eq.-2
//   rescaled when z_j = 1.
//
// Isolation overhead P_i: macro-model power of the prospective isolation
// bank cells at the measured data rates and the measured activation-
// signal toggle rate, plus the synthesized activation logic's gates.

#include <string>
#include <vector>

#include "isolation/candidates.hpp"
#include "isolation/muxfn.hpp"
#include "isolation/transform.hpp"
#include "power/macro_model.hpp"
#include "sim/activity.hpp"
#include "sim/engine.hpp"
#include "sim/stimulus.hpp"

namespace opiso {

enum class PrimaryModel { Simple, Refined };

/// One addend of the Eq. 1–5 savings/overhead decomposition, recorded
/// as it is summed so the attribution ledger provably reconstructs the
/// reported totals: sum(terms with kind "primary.*") == primary_mw,
/// likewise for "secondary.*" and "overhead.*" — exactly, because the
/// totals *are* the sums of these addends in this order.
///
/// Kinds:
///   primary.simple       Eq. 1: Pr(!f)·p(measured rates)  (one term)
///   primary.pair         Eq. 3 generalized: one steering-event pair
///   secondary.active     Eq. 5 term 1: c_i idle, fanout c_j active
///   secondary.idle       Eq. 5 term 2: both idle, only when z_j = 0
///   overhead.bank        prospective isolation bank on one input pin
///   overhead.induced     gate-bank forced-zero switching (non-latch)
///   overhead.logic       synthesized activation logic
struct SavingsTerm {
  std::string kind;
  double mw = 0.0;
  /// Measured probability of the enabling joint event (Pr(!f·...)); 1
  /// for overhead terms, which are unconditional.
  double probability = 1.0;
  double rate_a = 0.0;  ///< toggle rate fed to port A / the bank data pin
  double rate_b = 0.0;  ///< port B / the activation signal, where applicable
  std::string source_a;  ///< feeding cell for pair terms ("(background)" if none)
  std::string source_b;
  bool rescaled_a = false;  ///< Eq. 2 actual-toggle-rate rescale applied
  bool rescaled_b = false;
  std::string fanout;    ///< secondary terms: fanout candidate cell
  int fanout_port = -1;  ///< input port of the fanout candidate reached
  bool z_j = false;      ///< fanout candidate already isolated
};

class SavingsEstimator {
 public:
  /// Derives fanin/fanout networks for all candidates (one
  /// SteeringNetwork over `nl`). Every reference must outlive the
  /// estimator.
  SavingsEstimator(const Netlist& nl, ExprPool& pool, NetVarMap& vars,
                   const std::vector<IsolationCandidate>& candidates,
                   const MacroPowerModel& power);

  /// Register all required probes on a simulation engine (anything
  /// implementing ProbeHost) that shares `pool`/`vars`. Call before
  /// running the engine.
  void register_probes(ProbeHost& sim);

  /// Pr(!f_i) — probability candidate i computes redundantly.
  [[nodiscard]] double pr_redundant(std::size_t i, const ActivityStats& stats) const;
  /// Pr(f_i).
  [[nodiscard]] double pr_active(std::size_t i, const ActivityStats& stats) const;
  /// Toggle rate of the activation signal f_i.
  [[nodiscard]] double activation_toggle_rate(std::size_t i, const ActivityStats& stats) const;

  /// Eq. 2: actual (active-cycles-only) toggle rate from the measured
  /// full-interval average.
  [[nodiscard]] static double actual_toggle_rate(double measured, double pr_active);

  /// ΔP_p in mW. When `terms` is non-null every addend is appended as a
  /// SavingsTerm; the returned total is the sum of those addends (same
  /// additions, same order), so the ledger reconstructs it exactly.
  [[nodiscard]] double primary_savings_mw(std::size_t i, const ActivityStats& stats,
                                          PrimaryModel model,
                                          std::vector<SavingsTerm>* terms = nullptr) const;
  /// ΔP_s in mW (same `terms` contract).
  [[nodiscard]] double secondary_savings_mw(std::size_t i, const ActivityStats& stats,
                                            std::vector<SavingsTerm>* terms = nullptr) const;
  /// P_i in mW for the given style (banks + activation logic; same
  /// `terms` contract).
  [[nodiscard]] double overhead_mw(std::size_t i, const ActivityStats& stats,
                                   IsolationStyle style,
                                   std::vector<SavingsTerm>* terms = nullptr) const;

  [[nodiscard]] std::size_t num_candidates() const { return cands_.size(); }

  /// Probe index of Pr[f_i] (valid after register_probes). The
  /// confidence/coverage layers read this candidate's activation-signal
  /// exercise counts and batch moments through it.
  [[nodiscard]] std::size_t activation_probe(std::size_t i) const { return models_[i].probe_f; }

 private:
  struct PortEvent {
    ExprRef condition;     ///< steering condition (may include f_k term)
    double rate_scale;     ///< 1 / Pr(AS) for isolated-active events
    std::size_t source;    ///< candidate index of the source, or kBackground
    bool source_active;    ///< event asserts f_source
    std::size_t probe = 0; ///< filled during register_probes (pairs use their own)
  };
  static constexpr std::size_t kBackground = static_cast<std::size_t>(-1);

  struct FanoutTerm {
    std::size_t j;        ///< fanout candidate index
    int port;             ///< input port of c_j reached
    ExprRef g;            ///< connection condition
    std::size_t probe_active = 0;  ///< Pr(!f_i & f_j & g)
    std::size_t probe_idle = 0;    ///< Pr(!f_i & !f_j & g)
  };

  struct PairProbe {
    std::size_t a_event;
    std::size_t b_event;
    std::size_t probe;
  };

  struct CandidateModel {
    std::vector<std::vector<PortEvent>> port_events;  ///< per input port
    std::vector<PairProbe> pair_probes;               ///< refined primary
    std::vector<FanoutTerm> fanouts;                  ///< secondary
    std::size_t probe_f = 0;                          ///< Pr(f_i)
  };

  struct SourceRate {
    double rate = 0.0;
    bool rescaled = false;  ///< Eq. 2 rescale was applied
  };
  [[nodiscard]] SourceRate source_rate(const PortEvent& ev, const ActivityStats& stats,
                                       NetId pin_net) const;
  [[nodiscard]] std::string source_name(const PortEvent& ev) const;

  const Netlist& nl_;
  ExprPool& pool_;
  NetVarMap& vars_;
  std::vector<IsolationCandidate> cands_;
  MacroPowerModel power_;
  std::vector<CandidateModel> models_;
  bool probes_registered_ = false;
};

}  // namespace opiso
