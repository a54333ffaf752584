#pragma once
// Cycle-based two-phase RTL simulator.
//
// Each cycle: (1) primary inputs take fresh stimulus values, (2) all
// combinational cells evaluate once in topological order — transparent
// latches flow through or hold depending on their enable, updating their
// held state level-sensitively — and (3) on the implicit clock edge all
// registers capture. Activity statistics (toggle rates, static
// probabilities, probe probabilities) accumulate across run() calls
// until reset_stats().
//
// This is the "simulation of real-life test vectors" of Sec. 4.1: toggle
// rates feed the macro power models, probe probabilities feed the
// Pr(!f ...) terms of the savings model.

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "boolfn/expr.hpp"
#include "netlist/netlist.hpp"
#include "sim/activity.hpp"
#include "sim/engine.hpp"
#include "sim/stimulus.hpp"

namespace opiso {

class CycleSink;

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
  /// far: flushes the reset transient out of the toggle rates and
  /// probabilities the power models consume.
  void warmup(Stimulus& stim, std::uint64_t cycles) {
    run(stim, cycles);
    reset_stats();
  }

  /// Clear statistics but keep circuit state.
  void reset_stats();
  /// Reset circuit state (registers, latches, previous values) to zero.
  void reset_state();

  [[nodiscard]] const ActivityStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t net_value(NetId net) const;
  [[nodiscard]] const Netlist& netlist() const { return nl_; }

  /// Stream a VCD waveform of all nets while running (null disables).
  void set_vcd(std::ostream* os) { vcd_ = os; }

  /// Attach a per-cycle observer (null detaches). Each simulated cycle
  /// the sink receives this cycle's per-net bit-toggle counts (zeros on
  /// the first observed cycle) and the settled net values — attach
  /// after warmup so the trace covers exactly what stats() covers.
  void set_cycle_sink(CycleSink* sink);

  /// Collect per-bit toggle counts (needed by the dual-bit-type power
  /// models). Costs one pass over the set bits of each changed word.
  void enable_bit_stats();

  /// Collect batch-means moments (obs/confidence.hpp): per-window
  /// toggle counts for every net and true-counts for every probe, the
  /// raw material of the confidence report section. One add per net
  /// per cycle; warmup accumulation is discarded by reset_stats.
  void enable_batch_stats(std::uint32_t batch_frames);

 private:
  void settle_combinational();
  void clock_registers();
  void record_stats();
  void write_vcd_header();
  void write_vcd_cycle();

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
  std::ostream* vcd_ = nullptr;
  bool vcd_header_written_ = false;
  CycleSink* sink_ = nullptr;
  std::vector<std::uint32_t> sink_toggles_;  ///< per net, this cycle
};

}  // namespace opiso
