#include "sim/stimulus.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace opiso {

namespace {
const std::string& pi_net_name(const Netlist& nl, CellId pi) {
  return nl.net(nl.cell(pi).out).name;
}
}  // namespace

// ---------------------------------------------------------------- Uniform
std::uint64_t UniformStimulus::next(const Netlist& nl, CellId pi, std::uint64_t cycle) {
  // Cell ids grow with insertion, so primary_inputs() is sorted.
  const std::vector<CellId>& inputs = nl.primary_inputs();
  const auto it = std::lower_bound(inputs.begin(), inputs.end(), pi);
  OPISO_REQUIRE(it != inputs.end() && *it == pi, "UniformStimulus: not a primary input");
  const auto input = static_cast<std::uint64_t>(it - inputs.begin());
  std::uint64_t value = 0;
  for (unsigned b = 0; b < nl.cell(pi).width; ++b) {
    const std::uint64_t word =
        uniform_word(uniform_stream_key(lane_.family, input, b, lane_.lane / 64), cycle);
    value |= ((word >> (lane_.lane % 64)) & 1) << b;
  }
  return value;
}

// ---------------------------------------------------------------- Constant
void ConstantStimulus::set(const std::string& input_net_name, std::uint64_t value) {
  values_[input_net_name] = value;
}

std::uint64_t ConstantStimulus::next(const Netlist& nl, CellId pi, std::uint64_t) {
  auto it = values_.find(pi_net_name(nl, pi));
  const std::uint64_t raw = it == values_.end() ? 0 : it->second;
  return raw & width_mask(nl.cell(pi).width);
}

// ---------------------------------------------------------------- Vector
void VectorStimulus::set(const std::string& input_net_name, std::vector<std::uint64_t> values) {
  vectors_[input_net_name] = std::move(values);
}

std::uint64_t VectorStimulus::next(const Netlist& nl, CellId pi, std::uint64_t cycle) {
  auto it = vectors_.find(pi_net_name(nl, pi));
  if (it == vectors_.end() || it->second.empty()) return 0;
  const auto& vec = it->second;
  std::size_t idx;
  if (wrap_) {
    idx = static_cast<std::size_t>(cycle % vec.size());
  } else {
    idx = static_cast<std::size_t>(std::min<std::uint64_t>(cycle, vec.size() - 1));
  }
  return vec[idx] & width_mask(nl.cell(pi).width);
}

// ---------------------------------------------------------------- Markov bit
ControlledBitStimulus::ControlledBitStimulus(double p1, double toggle_rate, std::uint64_t seed)
    : p1_(p1), tr_(toggle_rate), rng_(seed) {
  OPISO_REQUIRE(p1 > 0.0 && p1 < 1.0, "ControlledBitStimulus: p1 must be in (0,1)");
  const double limit = 2.0 * std::min(p1, 1.0 - p1);
  OPISO_REQUIRE(toggle_rate >= 0.0 && toggle_rate <= limit,
                "ControlledBitStimulus: toggle rate must be in [0, 2*min(p1,1-p1)]");
  p01_ = tr_ / (2.0 * (1.0 - p1));
  p10_ = tr_ / (2.0 * p1);
}

std::uint64_t ControlledBitStimulus::next(const Netlist& nl, CellId pi, std::uint64_t) {
  const unsigned width = nl.cell(pi).width;
  const std::uint32_t key = pi.value();
  std::uint64_t word = state_[key];
  if (!started_[key]) {
    // Draw the initial state from the stationary distribution per bit.
    word = 0;
    for (unsigned b = 0; b < width; ++b) {
      if (rng_.next_bool(p1_)) word |= std::uint64_t{1} << b;
    }
    started_[key] = true;
  } else {
    for (unsigned b = 0; b < width; ++b) {
      const bool cur = (word >> b) & 1;
      const bool flip = rng_.next_bool(cur ? p10_ : p01_);
      if (flip) word ^= std::uint64_t{1} << b;
    }
  }
  state_[key] = word;
  return word;
}

// ---------------------------------------------------------------- Correlated walk
CorrelatedWalkStimulus::CorrelatedWalkStimulus(double relative_step, std::uint64_t seed)
    : relative_step_(relative_step), rng_(seed) {
  OPISO_REQUIRE(relative_step > 0.0 && relative_step <= 1.0,
                "CorrelatedWalkStimulus: relative step must be in (0,1]");
}

std::uint64_t CorrelatedWalkStimulus::next(const Netlist& nl, CellId pi, std::uint64_t) {
  const unsigned width = nl.cell(pi).width;
  const std::uint64_t mask = width_mask(width);
  const std::uint32_t key = pi.value();
  std::uint64_t x = state_[key];
  if (!started_[key]) {
    x = rng_.next_bits(width);  // random starting point
    started_[key] = true;
  } else {
    const double full_scale = static_cast<double>(mask) + 1.0;
    const std::uint64_t max_step =
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(full_scale * relative_step_));
    const std::uint64_t step = rng_.next_range(0, max_step);
    // Reflecting walk keeps the value in range without modular wrap
    // (wrap would fake a full-scale MSB transition).
    if (rng_.next_bool(0.5)) {
      x = (x + step > mask) ? mask - (x + step - mask) : x + step;
    } else {
      x = (step > x) ? (step - x) : x - step;
    }
    x &= mask;
  }
  state_[key] = x;
  return x;
}

// ---------------------------------------------------------------- Composite
CompositeStimulus::CompositeStimulus(std::unique_ptr<Stimulus> fallback)
    : fallback_(std::move(fallback)) {
  OPISO_REQUIRE(fallback_ != nullptr, "CompositeStimulus: fallback required");
}

void CompositeStimulus::route(const std::string& input_net_name, std::unique_ptr<Stimulus> gen) {
  OPISO_REQUIRE(gen != nullptr, "CompositeStimulus: null generator");
  routes_[input_net_name] = std::move(gen);
}

std::uint64_t CompositeStimulus::next(const Netlist& nl, CellId pi, std::uint64_t cycle) {
  auto it = routes_.find(pi_net_name(nl, pi));
  Stimulus& gen = it == routes_.end() ? *fallback_ : *it->second;
  return gen.next(nl, pi, cycle);
}

}  // namespace opiso
