#pragma once
// Bit-parallel multi-lane cycle simulator.
//
// Packs up to kMaxLanes independent stimulus streams ("lanes") into one
// plane *block* (kPlaneWords x 64-bit words, see sim/planes.hpp; a
// single word when the run has at most 64 lanes) per net bit: plane b
// of a net holds bit b of that net's value across all lanes. One
// levelized pass over a structure-of-arrays compilation of
// the netlist (sim/plane_program.hpp) then advances every lane by one
// cycle. Word-level arithmetic is evaluated bit-sliced — ripple-carry
// adders/subtractors, shift-and-add multipliers, bitwise comparators —
// so the engine does the work of up to kMaxLanes word-level simulations
// while touching each cell once per pass, and toggle counting
// degenerates to popcount(prev ^ cur) per plane word.
//
// This is the only simulation engine: every measurement runs on it. A
// caller with a single stimulus stream runs one lane. Contract (held by
// tests/test_sim_parallel.cpp against the reference interpreter in
// tests/reference_simulator.hpp, and by the fuzz suite): running lanes
// L with stimulus streams s_0..s_{L-1} for C cycles produces
// ActivityStats *bitwise identical* to interpreting the design once per
// stream for C cycles and merging the per-lane stats
// (ActivityStats::merge). In particular a one-lane run is bit for bit
// the plain cycle-by-cycle simulation of its stream. The contract holds
// for every plane-block width and ISA the kernels compile to.
//
// Inputs are driven one of two ways. When lane l's stimulus is lane l
// of one uniform family (sim/stimulus.hpp), every input plane word
// that carries a lane is one word of that family's counter-based
// stream: one hash per such word, with no per-lane work. Any other stimulus is called once per
// lane, input and cycle, and its value scattered into the planes bit by
// bit. Either way lane l sees the value its own stimulus's next() would
// return for that cycle (the plane path computes UniformStimulus::next()
// a plane word at a time), so the contract above holds on both.
//
// Probes are gates of the same program: add_probe compiles a probe's
// Expr DAG into one-bit And/Or/Not/Constant ops appended after the
// netlist's ops, each writing a plane slot of its own (a Var reads
// bit 0 of its net, and nodes shared between probes compile once). The
// cell kernels then evaluate every probe, and the statistics pass
// counts a probe's root plane the way it counts a net's.
//
// The statistics pass keeps what the estimator reads: per-net toggles
// and per-probe counts, and, when asked, folds each macro-cycle's
// CycleFrame into the batch-means windows of the same ActivityStats.
// Traces and waveforms are CycleSinks fed that frame
// (sim/cycle_trace.hpp); a wall-clock budget is a poll between chunks
// of cycles and sees no frame.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "boolfn/expr.hpp"
#include "netlist/netlist.hpp"
#include "sim/activity.hpp"
#include "sim/cycle_trace.hpp"
#include "sim/engine.hpp"
#include "sim/plane_program.hpp"
#include "sim/planes.hpp"
#include "sim/stimulus.hpp"

namespace opiso {

class ParallelSimulator : public ProbeHost {
 public:
  static constexpr unsigned kMaxLanes = 64 * kPlaneWords;

  /// One independent stimulus stream per lane. Lanes that read the same
  /// stream simulate the same trajectory; lane l of one uniform family
  /// (sweep_lane_seed(seed, l)) drives the inputs plane-natively.
  using LaneStimulusFactory = std::function<std::unique_ptr<Stimulus>(unsigned lane)>;

  /// The netlist must outlive the simulator; `lanes` in [1, kMaxLanes].
  /// `pool`/`vars` (optional, must outlive the simulator) enable Expr
  /// probes whose variables are NetVarMap variables.
  explicit ParallelSimulator(const Netlist& nl, unsigned lanes = kMaxLanes,
                             const ExprPool* pool = nullptr, const NetVarMap* vars = nullptr);

  /// Compile `expr` into the plane program. Probes must be added
  /// before the first simulated cycle (run or warmup).
  std::size_t add_probe(ExprRef expr) override;

  /// Instantiate one stimulus stream per lane (replacing any previous
  /// streams). Stream state persists across run() calls.
  void set_stimulus(const LaneStimulusFactory& make);

  /// Simulate `cycles` cycles in every lane (lanes() * cycles
  /// lane-cycles total). Statistics accumulate; lane state persists.
  /// `poll`, when given, is called after every kPollCycles macro-cycles
  /// and after the last (a wall-clock budget check, which may throw);
  /// it sees no frame and changes no result.
  void run(std::uint64_t cycles, const std::function<void()>& poll = nullptr);

  /// Run then drop statistics: flushes the reset transient.
  void warmup(std::uint64_t cycles, const std::function<void()>& poll = nullptr) {
    run(cycles, poll);
    reset_stats();
  }
  static constexpr std::uint64_t kPollCycles = 1024;

  /// Drops the statistics, batch-means windows included.
  void reset_stats() { stats_.reset(); }
  /// Attach a per-cycle observer (null detaches). Each macro-cycle the
  /// sink receives the cycle's frame, with lane 0's settled net values
  /// reassembled from the planes when it wants them; attach after
  /// warmup.
  void set_cycle_sink(CycleSink* sink);
  /// Fold each measured frame into stats().windows, windows of
  /// `batch_frames` frames (obs/confidence.hpp), before the cycle sink
  /// sees it.
  void enable_batch_stats(std::uint32_t batch_frames) {
    stats_.windows = obs::WindowCounts(batch_frames);
  }

  [[nodiscard]] const ActivityStats& stats() const { return stats_; }
  [[nodiscard]] unsigned lanes() const { return lanes_; }
  [[nodiscard]] const Netlist& netlist() const { return nl_; }

  /// Current value of `net` in one lane (reassembled from the planes;
  /// for tests and debugging).
  [[nodiscard]] std::uint64_t lane_value(NetId net, unsigned lane) const;

 private:
  // The per-cycle stages, instantiated per plane block width W (words_).
  template <unsigned W> void advance(std::uint64_t cycles);
  template <unsigned W> void drive_inputs();
  template <unsigned W> void record_stats();
  /// Plane index of Expr node `r`, appending its gate (and those of
  /// its uncompiled children) to the program first.
  std::size_t compile_expr(ExprRef r);

  const Netlist& nl_;
  const ExprPool* pool_;
  const NetVarMap* vars_;
  unsigned lanes_;
  unsigned words_;          ///< block width: 1 word up to 64 lanes, else kPlaneWords
  PlaneBlock lane_mask_{};  ///< active-lane mask, one block
  std::vector<CellId> order_;  ///< topological order
  PlaneProgram program_;       ///< SoA compilation of order_, then the probe gates

  std::vector<std::size_t> plane_off_;   ///< per net: bit-plane index (x words_ = word)
  std::vector<unsigned> net_width_;      ///< per net: width (bit planes)
  std::vector<std::uint64_t> planes_;    ///< current value: net bits, then probe gates
  std::vector<std::uint64_t> prev_;      ///< previous-cycle planes
  std::vector<std::size_t> state_off_;   ///< per cell: bit-plane index into state_
  std::vector<std::uint64_t> state_;     ///< reg/latch held planes

  std::vector<std::unique_ptr<Stimulus>> lane_stims_;
  /// Plane path: the stream key of every input plane word that carries
  /// a lane (the first ceil(lanes / 64) words of each bit plane),
  /// inputs in primary_inputs() order and each in plane order. Empty
  /// when the lanes are not lanes 0..L-1 of one uniform family.
  std::vector<std::uint64_t> input_keys_;

  static constexpr std::size_t kUncompiled = ~std::size_t{0};
  std::vector<std::size_t> expr_plane_;   ///< per Expr node: its plane, or kUncompiled
  std::vector<std::size_t> probe_plane_;  ///< per probe: its root's plane

  ActivityStats stats_;
  std::uint64_t cycle_ = 0;
  bool has_prev_ = false;
  CycleSink* sink_ = nullptr;
  // The frame's buffers, written only while windows or a sink take frames.
  std::vector<std::uint32_t> frame_toggles_;     ///< per net (lane-folded)
  std::vector<std::uint32_t> frame_probe_true_;  ///< per probe (lanes that held)
  std::vector<std::uint64_t> frame_values_;      ///< per net, lane 0 (when the sink wants them)
};

}  // namespace opiso
