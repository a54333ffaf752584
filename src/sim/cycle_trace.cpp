#include "sim/cycle_trace.hpp"

#include "util/error.hpp"

namespace opiso {

BatchSink::BatchSink(ActivityStats& stats, std::size_t num_nets, std::uint32_t batch_frames)
    : stats_(stats), batch_frames_(batch_frames) {
  stats_.net_batches.configure(num_nets, batch_frames);
}

void BatchSink::on_cycle(const Netlist& /*nl*/, const CycleFrame& frame) {
  if (!probes_configured_) {
    stats_.probe_batches.configure(frame.probe_true.size(), batch_frames_);
    probes_configured_ = true;
  }
  stats_.net_batches.begin_frame();
  stats_.probe_batches.begin_frame();
  for (std::size_t n = 0; n < frame.net_toggles.size(); ++n) {
    stats_.net_batches.add(n, frame.net_toggles[n]);
  }
  for (std::size_t p = 0; p < frame.probe_true.size(); ++p) {
    stats_.probe_batches.add(p, frame.probe_true[p]);
  }
}

CycleTrace::CycleTrace(std::uint64_t window, bool record_values)
    : window_(window), record_values_(record_values) {
  OPISO_REQUIRE(window >= 1, "CycleTrace: window must be >= 1");
}

void CycleTrace::on_cycle(const Netlist& nl, const CycleFrame& frame) {
  OPISO_REQUIRE(!finished_, "CycleTrace: capture after finish()");
  if (num_nets_ == 0 && cycles_ == 0) {
    num_nets_ = nl.num_nets();
    lanes_ = frame.lanes;
    accum_.assign(num_nets_, 0);
    net_totals_.assign(num_nets_, 0);
  }
  OPISO_REQUIRE(frame.net_toggles.size() == num_nets_ && frame.lanes == lanes_,
                "CycleTrace: engine changed shape mid-capture");
  OPISO_REQUIRE(!record_values_ || frame.net_values != nullptr,
                "CycleTrace: value recording needs the engine's net values");
  for (std::size_t n = 0; n < num_nets_; ++n) {
    accum_[n] += frame.net_toggles[n];
    net_totals_[n] += frame.net_toggles[n];
  }
  if (record_values_) last_values_.assign(frame.net_values, frame.net_values + num_nets_);
  ++cycles_;
  if (++cycles_in_sample_ == window_) flush_sample();
}

void CycleTrace::flush_sample() {
  Sample s;
  s.cycles = cycles_in_sample_;
  s.toggles = accum_;
  if (record_values_) s.values = last_values_;
  samples_.push_back(std::move(s));
  std::fill(accum_.begin(), accum_.end(), 0);
  cycles_in_sample_ = 0;
}

void CycleTrace::finish() {
  if (finished_) return;
  if (cycles_in_sample_ > 0) flush_sample();
  finished_ = true;
}

void CycleTrace::merge(const CycleTrace& other) {
  OPISO_REQUIRE(finished_ && other.finished_, "CycleTrace::merge: finish() both traces first");
  if (num_nets_ == 0 && samples_.empty()) {
    window_ = other.window_;
    num_nets_ = other.num_nets_;
    lanes_ = 0;  // accumulated below
    cycles_ = other.cycles_;
    net_totals_.assign(other.num_nets_, 0);
    samples_.resize(other.samples_.size());
    for (std::size_t s = 0; s < samples_.size(); ++s) {
      samples_[s].cycles = other.samples_[s].cycles;
      samples_[s].toggles.assign(num_nets_, 0);
    }
  }
  OPISO_REQUIRE(window_ == other.window_ && num_nets_ == other.num_nets_ &&
                    cycles_ == other.cycles_ && samples_.size() == other.samples_.size(),
                "CycleTrace::merge: traces cover different runs");
  lanes_ += other.lanes_;
  record_values_ = false;  // per-lane value snapshots do not fold
  for (auto& s : samples_) s.values.clear();
  for (std::size_t n = 0; n < num_nets_; ++n) net_totals_[n] += other.net_totals_[n];
  for (std::size_t s = 0; s < samples_.size(); ++s) {
    OPISO_REQUIRE(samples_[s].cycles == other.samples_[s].cycles,
                  "CycleTrace::merge: sample boundaries differ");
    for (std::size_t n = 0; n < num_nets_; ++n) {
      samples_[s].toggles[n] += other.samples_[s].toggles[n];
    }
  }
}

std::uint64_t CycleTrace::sample_cycles(std::size_t s) const {
  OPISO_REQUIRE(finished_ && s < samples_.size(), "CycleTrace: bad sample index");
  return samples_[s].cycles;
}

const std::vector<std::uint64_t>& CycleTrace::sample_toggles(std::size_t s) const {
  OPISO_REQUIRE(finished_ && s < samples_.size(), "CycleTrace: bad sample index");
  return samples_[s].toggles;
}

const std::vector<std::uint64_t>& CycleTrace::sample_values(std::size_t s) const {
  OPISO_REQUIRE(finished_ && s < samples_.size(), "CycleTrace: bad sample index");
  OPISO_REQUIRE(record_values_, "CycleTrace: values were not recorded");
  return samples_[s].values;
}

ActivityStats CycleTrace::to_activity_stats() const {
  OPISO_REQUIRE(finished_, "CycleTrace: finish() before to_activity_stats()");
  ActivityStats stats;
  stats.cycles = cycles_ * lanes_;
  stats.toggles = net_totals_;
  return stats;
}

}  // namespace opiso
