#pragma once
// Reference interpreter: a word-level, one-cycle-at-a-time simulator
// kept only as the test oracle of the plane engine (sim/parallel_sim
// .hpp). It shares no evaluation code with that engine — every cell is
// interpreted here with plain 64-bit arithmetic — so agreement between
// the two is evidence, not tautology.
//
// Each cycle: (1) primary inputs take fresh stimulus values, (2) all
// combinational cells evaluate once in topological order — transparent
// latches flow through or hold depending on their enable, updating their
// held state level-sensitively — and (3) on the implicit clock edge all
// registers capture. Activity statistics (toggle rates, probe
// probabilities) accumulate across run() calls until reset_stats().
// Each cycle it publishes the same CycleFrame as the plane engine, on
// one lane, to the batch-means windows (enable_batch_stats) and the
// cycle sink.
//
// The oracle contract the tests hold the plane engine to: an L-lane
// plane run with streams s_0..s_{L-1} produces ActivityStats bitwise
// identical to L runs of this interpreter, one per stream, merged with
// ActivityStats::merge.

#include <cstdint>
#include <vector>

#include "boolfn/expr.hpp"
#include "netlist/netlist.hpp"
#include "sim/activity.hpp"
#include "sim/cycle_trace.hpp"
#include "sim/engine.hpp"
#include "sim/stimulus.hpp"

namespace opiso {

class Simulator : public ProbeHost {
 public:
  /// The netlist must outlive the simulator and is validated here.
  /// `pool`/`vars` (both optional, must outlive the simulator when
  /// given) enable Expr probes whose variables are NetVarMap variables.
  explicit Simulator(const Netlist& nl, const ExprPool* pool = nullptr,
                     const NetVarMap* vars = nullptr);

  /// Register an expression to be evaluated each cycle. Returns the
  /// probe index used with ActivityStats::probe_probability.
  std::size_t add_probe(ExprRef expr) override;

  /// Simulate `cycles` cycles, drawing inputs from `stim`. Statistics
  /// accumulate; state (registers/latches) persists across calls.
  void run(Stimulus& stim, std::uint64_t cycles);

  /// Simulate `cycles` cycles and then drop all statistics gathered so
  /// far (flushes the reset transient).
  void warmup(Stimulus& stim, std::uint64_t cycles) {
    run(stim, cycles);
    reset_stats();
  }

  /// Clear statistics but keep circuit state.
  void reset_stats();

  [[nodiscard]] const ActivityStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t net_value(NetId net) const;
  [[nodiscard]] const Netlist& netlist() const { return nl_; }

  /// Attach a per-cycle observer (null detaches). Each simulated cycle
  /// the sink receives this cycle's frame, settled net values included.
  void set_cycle_sink(CycleSink* sink);

  /// Fold each frame into stats().windows, windows of `batch_frames`
  /// frames (obs/confidence.hpp).
  void enable_batch_stats(std::uint32_t batch_frames) {
    stats_.windows = obs::WindowCounts(batch_frames);
  }

 private:
  void settle_combinational();
  void clock_registers();
  void record_stats();

  const Netlist& nl_;
  const ExprPool* pool_;
  const NetVarMap* vars_;
  std::vector<CellId> order_;          ///< topological order
  std::vector<std::uint64_t> value_;   ///< current value per net
  std::vector<std::uint64_t> prev_;    ///< previous-cycle value per net
  std::vector<std::uint64_t> state_;   ///< per cell: reg/latch held value
  std::vector<std::uint64_t> mask_;    ///< per net: width mask
  std::vector<ExprRef> probes_;
  std::vector<bool> prev_probe_;
  ActivityStats stats_;
  std::uint64_t cycle_ = 0;
  bool has_prev_ = false;
  CycleSink* sink_ = nullptr;
  std::vector<std::uint32_t> frame_toggles_;     ///< per net, this cycle
  std::vector<std::uint32_t> frame_probe_true_;  ///< per probe, this cycle (0 or 1)
};

}  // namespace opiso
