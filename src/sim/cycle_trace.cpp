#include "sim/cycle_trace.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace opiso {

CycleTrace::CycleTrace(std::uint64_t window, bool record_values)
    : windows_(window), record_values_(record_values) {
  OPISO_REQUIRE(window >= 1, "CycleTrace: window must be >= 1");
}

void CycleTrace::on_cycle(const Netlist& nl, const CycleFrame& frame) {
  if (windows_.frames() == 0) lanes_ = frame.lanes;
  OPISO_REQUIRE(frame.lanes == lanes_, "CycleTrace: engine changed lanes mid-capture");
  windows_.add_frame(frame.net_toggles, frame.probe_true);
  if (!record_values_) return;
  OPISO_REQUIRE(frame.net_values != nullptr,
                "CycleTrace: value recording needs the engine's net values");
  const std::size_t n = nl.num_nets();
  values_.resize(windows_.num_windows() * n);
  std::copy_n(frame.net_values, n, values_.end() - static_cast<std::ptrdiff_t>(n));
}

void CycleTrace::merge(const CycleTrace& other) {
  windows_.merge(other.windows_);
  lanes_ += other.lanes_;
  record_values_ = false;  // per-lane value snapshots do not fold
  values_.clear();
}

std::span<const std::uint64_t> CycleTrace::sample_values(std::size_t s) const {
  OPISO_REQUIRE(record_values_, "CycleTrace: values were not recorded");
  OPISO_REQUIRE(s < windows_.num_windows(), "CycleTrace: bad sample index");
  const std::size_t n = windows_.num_nets();
  return {values_.data() + s * n, n};
}

}  // namespace opiso
