#pragma once
// The per-cycle frame of a run — the temporal axis of ActivityStats.
//
// ActivityStats answers "how often did this net toggle over the run";
// a frame answers "when". Each macro-cycle the plane engine publishes
// one CycleFrame: the per-net bit-toggle counts of that cycle folded
// over all active lanes (the popcount summed over the bit planes), the
// per-probe counts of lanes where the probe held and, when a sink asks,
// lane 0's settled net values. Every per-cycle consumer is a CycleSink
// reading that frame. The counts are integers, so folding, windowing
// and merging are exact: the per-cycle trace of an L-lane run is
// bitwise identical to the sample-wise sum of L one-lane traces with
// the same lane streams (the same oracle discipline as
// ActivityStats::merge), and a trace's per-net totals reproduce
// ActivityStats::toggles exactly.
//
// BatchSink folds frames into the confidence layer's batch-means
// windows. CycleTrace folds them into fixed-width windows (window = 1
// keeps full per-cycle resolution; larger windows bound memory on long
// runs — sums are preserved exactly either way) and can optionally
// snapshot the lane-0 net values, which is what the VCD exporter
// consumes.

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/activity.hpp"

namespace opiso {

/// One macro-cycle as the engine publishes it, after the cycle's
/// combinational settle and statistics recording, before the clock
/// edge. `net_toggles[n]` is the number of bit toggles of net n between
/// the previous and this cycle summed over the `lanes` active lanes
/// (all zero on the first simulated cycle), `probe_true[p]` the number
/// of lanes where probe p held, and `net_values` points at lane 0's
/// per-net settled values (null when no sink wants them).
struct CycleFrame {
  std::uint64_t cycle;
  unsigned lanes;
  std::span<const std::uint32_t> net_toggles, probe_true;
  const std::uint64_t* net_values;
};

/// Per-cycle observer the simulation engine drives with each frame.
/// An exception thrown from on_cycle ends the run: it propagates out of
/// ParallelSimulator::run, leaving that run's statistics incomplete
/// (the sweep's wall-clock budget stops a runaway task this way).
class CycleSink {
 public:
  virtual ~CycleSink() = default;
  virtual void on_cycle(const Netlist& nl, const CycleFrame& frame) = 0;
  /// False when on_cycle ignores net_values: the engine then skips
  /// reassembling them and passes null.
  [[nodiscard]] virtual bool wants_values() const { return true; }
};

/// Batch-means windows of `stats` (obs/confidence.hpp): each frame adds
/// every net's lane-folded toggles and every probe's lanes-true count
/// to the current window's cells — bitwise identical to merging one
/// accumulator per lane. `net_batches` is configured here,
/// `probe_batches` at the first frame, once every probe is registered.
class BatchSink final : public CycleSink {
 public:
  BatchSink(ActivityStats& stats, std::size_t num_nets, std::uint32_t batch_frames);

  void on_cycle(const Netlist& nl, const CycleFrame& frame) override;
  [[nodiscard]] bool wants_values() const override { return false; }

 private:
  ActivityStats& stats_;
  std::uint32_t batch_frames_;
  bool probes_configured_ = false;
};

/// Windowed per-net toggle trace (plus optional value snapshots).
///
/// Sample s covers macro-cycles [s*window, (s+1)*window) of the
/// observed run; the final sample may cover fewer cycles
/// (sample_cycles(s)). Call finish() after the run to flush a partial
/// trailing sample — all accessors below require it.
class CycleTrace final : public CycleSink {
 public:
  explicit CycleTrace(std::uint64_t window = 1, bool record_values = false);

  void on_cycle(const Netlist& nl, const CycleFrame& frame) override;
  [[nodiscard]] bool wants_values() const override { return record_values_; }

  /// Flush the partial trailing sample. Idempotent; capture may not
  /// resume afterwards.
  void finish();

  /// Sample-wise accumulation of another trace over the same netlist
  /// and window — the oracle operation that folds N one-lane traces
  /// into the shape of one N-lane parallel trace. An empty *this adopts
  /// the other side's shape; value snapshots do not merge and are
  /// dropped. Both traces must be finished.
  void merge(const CycleTrace& other);

  [[nodiscard]] std::uint64_t window() const { return window_; }
  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }  ///< macro-cycles observed
  [[nodiscard]] unsigned lanes() const { return lanes_; }         ///< folded lane count
  [[nodiscard]] std::size_t num_samples() const { return samples_.size(); }
  [[nodiscard]] std::size_t num_nets() const { return num_nets_; }
  [[nodiscard]] bool has_values() const { return record_values_; }

  /// Macro-cycles folded into sample s (== window except possibly last).
  [[nodiscard]] std::uint64_t sample_cycles(std::size_t s) const;
  /// Per-net toggle counts of sample s (lane-folded, exact integers).
  [[nodiscard]] const std::vector<std::uint64_t>& sample_toggles(std::size_t s) const;
  /// Per-net value snapshot at the last cycle of sample s (requires
  /// record_values; lane 0 of the run).
  [[nodiscard]] const std::vector<std::uint64_t>& sample_values(std::size_t s) const;
  /// Per-net toggle totals over the whole trace — equals the engine's
  /// ActivityStats::toggles for the same run segment, exactly.
  [[nodiscard]] const std::vector<std::uint64_t>& net_totals() const { return net_totals_; }

  /// Rebuild the aggregate statistics this trace integrates to:
  /// toggles = net_totals(), cycles = cycles() * lanes(). Feeding the
  /// result to PowerEstimator reproduces the aggregate power of the
  /// traced run bit-for-bit (the estimator consumes only toggle rates).
  [[nodiscard]] ActivityStats to_activity_stats() const;

 private:
  void flush_sample();

  std::uint64_t window_;
  bool record_values_;
  bool finished_ = false;

  std::size_t num_nets_ = 0;
  unsigned lanes_ = 0;
  std::uint64_t cycles_ = 0;           ///< macro-cycles observed so far
  std::uint64_t cycles_in_sample_ = 0;  ///< cycles folded into the open sample

  struct Sample {
    std::uint64_t cycles = 0;
    std::vector<std::uint64_t> toggles;  ///< per net
    std::vector<std::uint64_t> values;   ///< per net (empty unless recording)
  };
  std::vector<std::uint64_t> accum_;      ///< open sample: per-net toggles
  std::vector<std::uint64_t> last_values_;
  std::vector<std::uint64_t> net_totals_;
  std::vector<Sample> samples_;
};

}  // namespace opiso
