#pragma once
// The per-cycle frame of a run — the temporal axis of ActivityStats.
//
// ActivityStats answers "how often did this net toggle over the run";
// a frame answers "when". Each macro-cycle the plane engine publishes
// one CycleFrame: the per-net bit-toggle counts of that cycle folded
// over all active lanes (the popcount summed over the bit planes), the
// per-probe counts of lanes where the probe held and, when a sink asks,
// lane 0's settled net values. The engine folds the frames into
// ActivityStats' batch-means windows itself; every other per-cycle
// consumer is a CycleSink reading them. The counts are integers, so
// folding, windowing and merging are exact: the per-cycle trace of an
// L-lane run is bitwise identical to the window-wise sum of L one-lane
// traces with the same lane streams (the same oracle discipline as
// ActivityStats::merge), and a trace's column sums reproduce
// ActivityStats::toggles exactly.
//
// CycleTrace folds frames into the same fixed-width window store as
// the batch-means windows (obs::WindowCounts; window = 1 keeps full
// per-cycle resolution, larger windows bound memory on long runs — sums
// are preserved exactly either way) and can optionally snapshot the
// lane-0 net values, which is what the VCD exporter consumes.

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "obs/confidence.hpp"

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
class CycleSink {
 public:
  virtual ~CycleSink() = default;
  virtual void on_cycle(const Netlist& nl, const CycleFrame& frame) = 0;
  /// False when on_cycle ignores net_values: the engine then skips
  /// reassembling them and passes null.
  [[nodiscard]] virtual bool wants_values() const { return true; }
};

/// Windowed per-net toggle trace (plus optional value snapshots).
///
/// Sample s is window s of windows(): macro-cycles [s*window,
/// (s+1)*window) of the observed run; the final sample may cover fewer
/// cycles (windows().frames_in(s)).
class CycleTrace final : public CycleSink {
 public:
  explicit CycleTrace(std::uint64_t window = 1, bool record_values = false);

  void on_cycle(const Netlist& nl, const CycleFrame& frame) override;
  [[nodiscard]] bool wants_values() const override { return record_values_; }

  /// Window-wise accumulation of another trace of the same cycles on
  /// other lanes — the oracle operation that folds N one-lane traces
  /// into the shape of one N-lane trace. An empty *this adopts the
  /// other side's shape; value snapshots do not merge and are dropped.
  void merge(const CycleTrace& other);

  /// The lane-folded counts: window s holds sample s.
  [[nodiscard]] const obs::WindowCounts& windows() const { return windows_; }
  [[nodiscard]] unsigned lanes() const { return lanes_; }  ///< folded lane count
  [[nodiscard]] bool has_values() const { return record_values_; }
  /// Per-net value snapshot at the last cycle of sample s (requires
  /// record_values; lane 0 of the run).
  [[nodiscard]] std::span<const std::uint64_t> sample_values(std::size_t s) const;

 private:
  obs::WindowCounts windows_;
  bool record_values_;
  unsigned lanes_ = 0;
  std::vector<std::uint64_t> values_;  ///< window-major per-net snapshots
};

}  // namespace opiso
