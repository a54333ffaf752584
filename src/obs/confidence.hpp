#pragma once
// Streaming batch-means confidence statistics for activity estimates.
//
// Every toggle rate, probe probability, and power figure the pipeline
// reports is a Monte-Carlo estimate from random stimulus. This layer
// measures how converged those estimates are, without giving up the
// project's bitwise-determinism contract: the accumulator stores only
// exact integers (toggle counts per batch window), so its merge is
// associative and commutative — the cells come out identical whether
// the frames were simulated one lane at a time, many lanes side by side
// on the plane engine, or split across any number of sweep worker
// threads. All floating-point
// derivation (means, variances, Student-t half-widths) happens at
// report time, in this translation unit, which is compiled with
// -ffp-contract=off so the arithmetic is the same IEEE sequence on
// every build of the same source.
//
// Batch definition: a *window* is `batch_frames` consecutive stimulus
// frames; one cell accumulates the total event count (bit toggles, or
// lanes-where-probe-held) over all lanes in one window for one series
// (net or probe). Batch means over windows are the classic batch-means
// estimator: consecutive-frame correlation (sequential logic) is
// absorbed inside a window, and the variance of the window means yields
// a confidence interval on the long-run rate. The trailing partial
// window is carried exactly (merges stay associative) but excluded
// from interval computation.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace opiso::obs {

/// Exact-integer per-(window × series) event counts. Disabled (all
/// operations no-ops) until `configure` is called with a nonzero
/// batch size, so the hot simulation loops pay one branch when the
/// feature is off.
class BatchAccumulator {
 public:
  /// Series = nets (or probes); batch_frames = frames per window
  /// (0 disables). Discards any previously accumulated cells.
  void configure(std::size_t num_series, std::uint32_t batch_frames);

  [[nodiscard]] bool enabled() const { return batch_frames_ != 0; }
  [[nodiscard]] std::uint32_t batch_frames() const { return batch_frames_; }
  [[nodiscard]] std::size_t num_series() const { return num_series_; }
  /// Frames begun since the last reset/configure.
  [[nodiscard]] std::uint64_t num_frames() const { return num_frames_; }
  /// Windows with a full complement of batch_frames frames.
  [[nodiscard]] std::uint64_t complete_windows() const {
    return batch_frames_ == 0 ? 0 : num_frames_ / batch_frames_;
  }
  [[nodiscard]] std::uint64_t cell(std::uint64_t window, std::size_t series) const {
    return cells_[static_cast<std::size_t>(window) * num_series_ + series];
  }

  /// Open the next stimulus frame. Every engine calls this once per
  /// measured frame *before* the frame's `add` calls.
  void begin_frame() {
    if (batch_frames_ == 0) return;
    const std::uint64_t window = num_frames_ / batch_frames_;
    cell_base_ = static_cast<std::size_t>(window) * num_series_;
    if (cells_.size() < cell_base_ + num_series_) {
      cells_.resize(cell_base_ + num_series_, 0);
    }
    ++num_frames_;
  }

  /// Count events for one series in the current frame's window.
  void add(std::size_t series, std::uint64_t count) {
    if (batch_frames_ == 0) return;
    cells_[cell_base_ + series] += count;
  }

  /// Element-wise accumulation of another accumulator over the *same
  /// frames* (other lanes of the same stimulus schedule): cells add,
  /// the frame count is the maximum of the two sides. An unconfigured
  /// *this adopts the other side wholesale; a disabled other side is a
  /// no-op. Integer addition makes this associative and commutative,
  /// which is what keeps reports identical across lane/thread/engine
  /// partitions.
  void merge(const BatchAccumulator& other);

  /// Zero all cells and the frame counter; keeps the configuration.
  void reset();

 private:
  std::uint32_t batch_frames_ = 0;
  std::size_t num_series_ = 0;
  std::uint64_t num_frames_ = 0;
  std::size_t cell_base_ = 0;  ///< (current window) * num_series_
  std::vector<std::uint64_t> cells_;
};

/// Knobs for confidence collection and the optional convergence gate.
struct ConfidenceConfig {
  bool enabled = false;
  /// Two-sided confidence level of the reported intervals.
  double level = 0.95;
  /// Frames per batch window. 16 windows of 16 frames at the default
  /// 4096-cycle runs; larger batches absorb longer-range correlation.
  std::uint32_t batch_frames = 16;
  /// When >= 0: a run whose design-power CI half-width exceeds this is
  /// flagged as under-converged (the run is *not* silently extended).
  double min_power_ci_halfwidth_mw = -1.0;
};

/// Mean and two-sided CI half-width of one estimated rate.
struct SeriesInterval {
  double mean = 0.0;
  double halfwidth = 0.0;
  std::uint64_t batches = 0;  ///< complete windows used (0 or 1 => no interval)
};

/// Two-sided Student-t quantile: the t with P(|T_df| <= t) = level.
/// Exact for df 1 and 2; Cornish-Fisher expansion (≈1e-5 absolute for
/// df >= 3) above — ample for observability and fully deterministic.
[[nodiscard]] double student_t_quantile(double level, std::uint64_t df);

/// CI of one series' per-lane-frame event rate. `lanes` is the number
/// of parallel stimulus lanes each window aggregated (total cycles /
/// frames). halfwidth is 0 with fewer than 2 complete windows.
[[nodiscard]] SeriesInterval batch_interval(const BatchAccumulator& acc, std::size_t series,
                                            std::uint64_t lanes, double level);

/// CI of a fixed linear combination of series rates — the design-power
/// interval, using the macro model's exact per-net dP/dTr weights.
[[nodiscard]] SeriesInterval weighted_interval(const BatchAccumulator& acc,
                                               const std::vector<double>& weights,
                                               std::uint64_t lanes, double level);

/// Layer-agnostic inputs for the report section (callers adapt their
/// Netlist/ActivityStats; obs stays below the netlist layer).
struct ConfidenceInput {
  const BatchAccumulator* nets = nullptr;  ///< per-net toggle batches
  std::uint64_t cycles = 0;                ///< total lane-cycles measured
  std::vector<std::string> net_names;      ///< index-aligned with series
  /// Per-net dP/dTr in mW (empty => no power interval).
  std::vector<double> power_weights_mw;
  /// Toggle-independent power in mW: the design-power interval is
  /// centred on this plus Σ weight·Tr.
  double static_power_mw = 0.0;
  ConfidenceConfig config;
};

/// `opiso.confidence/v1` report section: design-power CI, per-net
/// toggle-rate CIs, and the convergence verdict when a gate is set.
[[nodiscard]] JsonValue build_confidence_section(const ConfidenceInput& input);

}  // namespace opiso::obs
