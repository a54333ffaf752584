#pragma once
// Stimulus generators for cycle-based simulation.
//
// The paper's experiments hinge on the *statistics* of the stimuli: the
// design1 sweep varies the static probability and toggle rate of a
// primary-input activation signal (Sec. 6). ControlledBitStimulus
// realizes an exact stationary Markov bit stream with a requested
// Pr[1] and toggle rate; CompositeStimulus routes different generators
// to different primary inputs.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "netlist/netlist.hpp"
#include "support/rng.hpp"

namespace opiso {

/// Supplies one value per primary input per cycle. The simulator calls
/// next() for each PI in insertion order, once per cycle, so stateful
/// generators see a deterministic call sequence.
class Stimulus {
 public:
  virtual ~Stimulus() = default;
  [[nodiscard]] virtual std::uint64_t next(const Netlist& nl, CellId pi, std::uint64_t cycle) = 0;

  /// Non-null iff this generator is a plain uniform draw from the
  /// returned Rng (one next_bits(width) per call, no other state). The
  /// lane-parallel engine uses this to advance all lane RNGs in
  /// structure-of-arrays lockstep instead of through virtual dispatch;
  /// a caller that takes the pointer owns the stream from then on.
  [[nodiscard]] virtual Rng* uniform_rng() { return nullptr; }
};

/// Uniform random words on every input.
class UniformStimulus : public Stimulus {
 public:
  explicit UniformStimulus(std::uint64_t seed = 1);
  std::uint64_t next(const Netlist& nl, CellId pi, std::uint64_t cycle) override;
  Rng* uniform_rng() override { return &rng_; }

 private:
  Rng rng_;
};

/// Holds every input at a constant value (defaults to 0); selected
/// inputs can be overridden. Useful for directed unit tests.
class ConstantStimulus : public Stimulus {
 public:
  ConstantStimulus() = default;
  void set(const std::string& input_net_name, std::uint64_t value);
  std::uint64_t next(const Netlist& nl, CellId pi, std::uint64_t cycle) override;

 private:
  std::unordered_map<std::string, std::uint64_t> values_;
};

/// Replays a per-input vector of values; repeats the last value once the
/// vector is exhausted (or wraps, if configured).
class VectorStimulus : public Stimulus {
 public:
  explicit VectorStimulus(bool wrap = false) : wrap_(wrap) {}
  void set(const std::string& input_net_name, std::vector<std::uint64_t> values);
  std::uint64_t next(const Netlist& nl, CellId pi, std::uint64_t cycle) override;

 private:
  bool wrap_;
  std::unordered_map<std::string, std::vector<std::uint64_t>> vectors_;
};

/// Stationary two-state Markov chain over a single bit with exact target
/// statistics: Pr[1] = p1 and E[toggles/cycle] = tr. Requires
/// tr <= 2*min(p1, 1-p1); transition probabilities follow from
/// detailed balance: p0->1 = tr/(2*(1-p1)), p1->0 = tr/(2*p1).
/// For multi-bit inputs, each bit runs an independent chain.
class ControlledBitStimulus : public Stimulus {
 public:
  ControlledBitStimulus(double p1, double toggle_rate, std::uint64_t seed = 7);
  std::uint64_t next(const Netlist& nl, CellId pi, std::uint64_t cycle) override;

  [[nodiscard]] double p1() const { return p1_; }
  [[nodiscard]] double toggle_rate() const { return tr_; }

 private:
  double p1_;
  double tr_;
  double p01_;
  double p10_;
  Rng rng_;
  std::unordered_map<std::uint32_t, std::uint64_t> state_;  ///< per-PI word
  std::unordered_map<std::uint32_t, bool> started_;
};

/// Temporally correlated data stream: a bounded random walk
/// x(t+1) = x(t) ± step with step ~ U[0, max_step]. Consecutive samples
/// differ by little, so low-order bits toggle like white noise while
/// high-order bits toggle rarely — the dual-bit-type signal shape of
/// Landman's macro models ([5] in the paper) that real DSP data
/// exhibits and uniform random vectors do not.
class CorrelatedWalkStimulus : public Stimulus {
 public:
  /// max_step as a fraction of full scale (e.g. 0.02 -> +-2% steps).
  explicit CorrelatedWalkStimulus(double relative_step = 0.02, std::uint64_t seed = 17);
  std::uint64_t next(const Netlist& nl, CellId pi, std::uint64_t cycle) override;

 private:
  double relative_step_;
  Rng rng_;
  std::unordered_map<std::uint32_t, std::uint64_t> state_;
  std::unordered_map<std::uint32_t, bool> started_;
};

/// Routes selected inputs (by net name) to dedicated generators; the
/// fallback generator handles everything else.
class CompositeStimulus : public Stimulus {
 public:
  explicit CompositeStimulus(std::unique_ptr<Stimulus> fallback);
  void route(const std::string& input_net_name, std::unique_ptr<Stimulus> gen);
  std::uint64_t next(const Netlist& nl, CellId pi, std::uint64_t cycle) override;

 private:
  std::unique_ptr<Stimulus> fallback_;
  std::unordered_map<std::string, std::unique_ptr<Stimulus>> routes_;
};

}  // namespace opiso
