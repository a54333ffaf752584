#pragma once
// Streaming batch-means confidence statistics for activity estimates.
//
// Every toggle rate, probe probability, and power figure the pipeline
// reports is a Monte-Carlo estimate from random stimulus. This layer
// measures how converged those estimates are, without giving up the
// project's bitwise-determinism contract: the windows store only exact
// integers (event counts per window), so their merge is associative
// and commutative — the cells come out identical whether the frames
// were simulated one lane at a time, many lanes side by side on the
// plane engine, or split across any number of sweep worker threads.
// All floating-point derivation (means, variances, Student-t
// half-widths) happens at report time, in this translation unit and
// the section builders of sim/activity.cpp, both compiled with
// -ffp-contract=off so the arithmetic is the same IEEE sequence on
// every build of the same source.
//
// Batch definition: a *window* is `width` consecutive stimulus frames;
// one cell holds the total event count (bit toggles, or
// lanes-where-probe-held) over all lanes in one window for one column
// (net or probe). Batch means over windows are the classic batch-means
// estimator: consecutive-frame correlation (sequential logic) is
// absorbed inside a window, and the variance of the window means yields
// a confidence interval on the long-run rate. The trailing partial
// window is carried exactly (merges stay associative) but excluded
// from interval computation.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace opiso::obs {

/// Exact integer event counts per window of `width` consecutive
/// frames — the one store behind ActivityStats' batch-means windows and
/// a CycleTrace's samples. Each window is one row: every net's bit
/// toggles, then every probe's lanes-held count, summed over the
/// window's frames and all lanes. Width 0 disables the store (add_frame
/// is a no-op), so the simulation loops pay one branch when it is off.
class WindowCounts {
 public:
  WindowCounts() = default;
  explicit WindowCounts(std::uint64_t width) : width_(width) {}

  [[nodiscard]] bool enabled() const { return width_ != 0; }
  [[nodiscard]] std::uint64_t width() const { return width_; }
  [[nodiscard]] std::size_t num_nets() const { return nets_; }
  [[nodiscard]] std::uint64_t frames() const { return frames_; }
  /// Windows with a full complement of width() frames.
  [[nodiscard]] std::uint64_t complete_windows() const {
    return width_ == 0 ? 0 : frames_ / width_;
  }
  /// Windows holding at least one frame (a trailing partial one too).
  [[nodiscard]] std::uint64_t num_windows() const {
    return width_ == 0 ? 0 : (frames_ + width_ - 1) / width_;
  }
  /// Frames in window w: width() except possibly the last.
  [[nodiscard]] std::uint64_t frames_in(std::uint64_t w) const {
    return std::min(width_, frames_ - w * width_);
  }
  /// Column c of window w: net c below num_nets(), else probe
  /// c - num_nets().
  [[nodiscard]] std::uint64_t cell(std::uint64_t w, std::size_t c) const {
    return cells_[static_cast<std::size_t>(w) * (nets_ + probes_) + c];
  }
  /// The per-net columns of window w.
  [[nodiscard]] std::span<const std::uint64_t> nets(std::uint64_t w) const {
    return {cells_.data() + static_cast<std::size_t>(w) * (nets_ + probes_), nets_};
  }

  /// Count one frame's per-net and per-probe events (lanes folded)
  /// into the current window. The first frame fixes the column shape.
  void add_frame(std::span<const std::uint32_t> nets, std::span<const std::uint32_t> probes);

  /// Cell-wise accumulation of the same frames on other lanes: the
  /// oracle operation that folds per-lane runs into one many-lane run.
  /// A side without frames (a disabled one included) takes the other
  /// side wholesale.
  void merge(const WindowCounts& other);

  /// Drop every frame; keeps the width.
  void reset();

  bool operator==(const WindowCounts&) const = default;

 private:
  std::uint64_t width_ = 0;
  std::size_t nets_ = 0;
  std::size_t probes_ = 0;
  std::uint64_t frames_ = 0;
  std::vector<std::uint64_t> cells_;  ///< window-major rows of nets_ + probes_ cells
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

/// CI of one column's per-lane-frame event rate. `lanes` is the number
/// of parallel stimulus lanes each window aggregated (total cycles /
/// frames). halfwidth is 0 with fewer than 2 complete windows.
[[nodiscard]] SeriesInterval batch_interval(const WindowCounts& windows, std::size_t column,
                                            std::uint64_t lanes, double level);

/// CI of a fixed linear combination of net rates — the design-power
/// interval, using the macro model's exact per-net dP/dTr weights.
[[nodiscard]] SeriesInterval weighted_interval(const WindowCounts& windows,
                                               const std::vector<double>& weights,
                                               std::uint64_t lanes, double level);

}  // namespace opiso::obs
