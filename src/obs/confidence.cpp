#include "obs/confidence.hpp"

// This translation unit is compiled with -ffp-contract=off (see
// src/obs/CMakeLists.txt): all interval arithmetic must be the same
// IEEE operation sequence on every build of the same source, so the
// determinism CI leg can diff confidence sections bitwise across
// engines, thread counts and plane widths.

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace opiso::obs {

void WindowCounts::add_frame(std::span<const std::uint32_t> nets,
                             std::span<const std::uint32_t> probes) {
  if (width_ == 0) return;
  if (frames_ == 0) {
    nets_ = nets.size();
    probes_ = probes.size();
  }
  OPISO_ASSERT(nets.size() == nets_ && probes.size() == probes_,
               "WindowCounts: the frame shape changed mid-run");
  if (frames_++ % width_ == 0) cells_.resize(cells_.size() + nets_ + probes_, 0);
  std::uint64_t* row = cells_.data() + cells_.size() - (nets_ + probes_);
  for (std::size_t n = 0; n < nets_; ++n) row[n] += nets[n];
  for (std::size_t p = 0; p < probes_; ++p) row[nets_ + p] += probes[p];
}

void WindowCounts::merge(const WindowCounts& other) {
  if (other.frames_ == 0) return;
  if (frames_ == 0) {
    *this = other;
    return;
  }
  OPISO_REQUIRE(width_ == other.width_ && nets_ == other.nets_ && probes_ == other.probes_ &&
                    frames_ == other.frames_,
                "WindowCounts::merge: the windows cover different frames");
  for (std::size_t i = 0; i < cells_.size(); ++i) cells_[i] += other.cells_[i];
}

void WindowCounts::reset() {
  frames_ = 0;
  cells_.clear();
}

namespace {

/// Acklam's rational approximation of the standard normal quantile
/// (absolute error < 1.15e-9 over (0, 1)).
double inverse_normal(double p) {
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00, 2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425;
  if (p < plow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > 1.0 - plow) {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

}  // namespace

double student_t_quantile(double level, std::uint64_t df) {
  OPISO_REQUIRE(level > 0.0 && level < 1.0, "student_t_quantile: level must be in (0, 1)");
  OPISO_REQUIRE(df >= 1, "student_t_quantile: df must be >= 1");
  if (df == 1) {
    // t_{1-alpha/2, 1} = tan(pi * level / 2).
    return std::tan(1.5707963267948966 * level);
  }
  if (df == 2) {
    const double alpha = 1.0 - level;
    return std::sqrt(2.0 / (alpha * (2.0 - alpha)) - 2.0);
  }
  // Cornish-Fisher expansion of the t quantile around the normal one.
  const double z = inverse_normal(0.5 * (1.0 + level));
  const double nu = static_cast<double>(df);
  const double z2 = z * z;
  const double g1 = (z2 + 1.0) * z / 4.0;
  const double g2 = ((5.0 * z2 + 16.0) * z2 + 3.0) * z / 96.0;
  const double g3 = (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) * z / 384.0;
  const double g4 = ((((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2 - 945.0) * z /
                    92160.0;
  return z + g1 / nu + g2 / (nu * nu) + g3 / (nu * nu * nu) + g4 / (nu * nu * nu * nu);
}

SeriesInterval batch_interval(const WindowCounts& acc, std::size_t column, std::uint64_t lanes,
                              double level) {
  SeriesInterval out;
  const std::uint64_t windows = acc.complete_windows();
  out.batches = windows;
  if (windows == 0 || lanes == 0) return out;
  const double scale =
      1.0 / (static_cast<double>(lanes) * static_cast<double>(acc.width()));
  double sum = 0.0;
  for (std::uint64_t w = 0; w < windows; ++w) {
    sum += static_cast<double>(acc.cell(w, column)) * scale;
  }
  out.mean = sum / static_cast<double>(windows);
  if (windows < 2) return out;
  double ss = 0.0;
  for (std::uint64_t w = 0; w < windows; ++w) {
    const double d = static_cast<double>(acc.cell(w, column)) * scale - out.mean;
    ss += d * d;
  }
  const double var_mean = ss / static_cast<double>(windows - 1) / static_cast<double>(windows);
  out.halfwidth = student_t_quantile(level, windows - 1) * std::sqrt(var_mean);
  return out;
}

SeriesInterval weighted_interval(const WindowCounts& acc, const std::vector<double>& weights,
                                 std::uint64_t lanes, double level) {
  SeriesInterval out;
  const std::uint64_t windows = acc.complete_windows();
  out.batches = windows;
  if (windows == 0 || lanes == 0) return out;
  OPISO_REQUIRE(weights.size() == acc.num_nets(),
                "weighted_interval: weight vector does not match the net count");
  const double scale =
      1.0 / (static_cast<double>(lanes) * static_cast<double>(acc.width()));
  std::vector<double> samples(static_cast<std::size_t>(windows), 0.0);
  for (std::uint64_t w = 0; w < windows; ++w) {
    double p = 0.0;
    for (std::size_t s = 0; s < weights.size(); ++s) {
      p += weights[s] * (static_cast<double>(acc.cell(w, s)) * scale);
    }
    samples[static_cast<std::size_t>(w)] = p;
  }
  double sum = 0.0;
  for (double p : samples) sum += p;
  out.mean = sum / static_cast<double>(windows);
  if (windows < 2) return out;
  double ss = 0.0;
  for (double p : samples) {
    const double d = p - out.mean;
    ss += d * d;
  }
  const double var_mean = ss / static_cast<double>(windows - 1) / static_cast<double>(windows);
  out.halfwidth = student_t_quantile(level, windows - 1) * std::sqrt(var_mean);
  return out;
}

}  // namespace opiso::obs
