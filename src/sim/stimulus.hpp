#pragma once
// Stimulus generators for cycle-based simulation.
//
// The paper's experiments hinge on the *statistics* of the stimuli: the
// design1 sweep varies the static probability and toggle rate of a
// primary-input activation signal (Sec. 6). ControlledBitStimulus
// realizes an exact stationary Markov bit stream with a requested
// Pr[1] and toggle rate; CompositeStimulus routes different generators
// to different primary inputs.
//
// Uniform stimulus is counter-based: a family K names a set of lanes,
// and lane l of K reads bit l % 64 of one 64-bit word per (input, bit,
// cycle). So one word of a family's stream is one plane word of the
// lane-parallel engine (sim/parallel_sim.hpp), and a lane's stream is a
// function of (K, l) alone, whatever the threads, plane width or lane
// count of the run that reads it.

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
};

/// Lane `lane` of the uniform family `family`.
struct UniformLane {
  std::uint64_t family = 1;
  unsigned lane = 0;
  friend constexpr bool operator==(const UniformLane&, const UniformLane&) = default;
};

/// Key of the uniform stream of family `family` behind bit `bit` of
/// plane word `word` (lanes 64·word .. 64·word+63) of the primary input
/// at position `input` of primary_inputs(). The fields are packed
/// without overlap (input < 2^32, bit < 64, word < 2^26) and splitmix64
/// is a bijection, so within a family no two (input, bit, word) share a
/// key; families are set apart by splitmix64(family).
[[nodiscard]] constexpr std::uint64_t uniform_stream_key(std::uint64_t family,
                                                         std::uint64_t input, unsigned bit,
                                                         std::uint64_t word) {
  return splitmix64(splitmix64(family) ^ (input << 32 | std::uint64_t{bit} << 26 | word));
}

/// Word `cycle` of the stream keyed `key`: SplitMix64 output number
/// `cycle` of the generator seeded with the key.
[[nodiscard]] constexpr std::uint64_t uniform_word(std::uint64_t key, std::uint64_t cycle) {
  return splitmix64(key + (cycle + 1) * kSplitMixGamma);
}

/// Uniform random words on every input: lane `lane().lane` of family
/// `lane().family`. Bit b of input p at cycle t is bit lane % 64 of
/// uniform_word(uniform_stream_key(family, p, b, lane / 64), t), so
/// next() keeps no state and depends on the cycle it is given.
class UniformStimulus : public Stimulus {
 public:
  /// Lane 0 of family `family`.
  explicit UniformStimulus(std::uint64_t family = 1) : lane_{family, 0} {}
  explicit UniformStimulus(UniformLane lane) : lane_(lane) {}
  std::uint64_t next(const Netlist& nl, CellId pi, std::uint64_t cycle) override;
  [[nodiscard]] UniformLane lane() const { return lane_; }

 private:
  UniformLane lane_;
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
