#pragma once
// Deterministic pseudo-random number generation for stimulus and tests.
//
// A thin wrapper around xoshiro256** with convenience draws used by the
// stimulus generators: uniform words, Bernoulli bits with exact
// probability, and range draws. Deterministic seeding keeps every
// experiment in EXPERIMENTS.md byte-reproducible.

#include <array>
#include <cstdint>

namespace opiso {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) {
    // SplitMix64 seeding as recommended by the xoshiro authors.
    std::uint64_t z = seed;
    for (auto& s : state_) {
      z += 0x9E3779B97F4A7C15ull;
      std::uint64_t x = z;
      x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
      x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
      s = x ^ (x >> 31);
    }
  }

  /// Uniform 64-bit word.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform word restricted to `width` low bits (width in [1,64]).
  std::uint64_t next_bits(unsigned width) {
    const std::uint64_t w = next_u64();
    return width >= 64 ? w : (w & ((std::uint64_t{1} << width) - 1));
  }

  /// Uniform double in [0,1).
  double next_double() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  /// Bernoulli draw: true with probability p.
  bool next_bool(double p) { return next_double() < p; }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t next_range(std::uint64_t lo, std::uint64_t hi) {
    return lo + next_u64() % (hi - lo + 1);
  }

  /// Raw xoshiro state, for engines that advance many Rngs in lockstep
  /// structure-of-arrays form (sim/parallel_sim.cpp).
  [[nodiscard]] std::array<std::uint64_t, 4> state() const {
    return {state_[0], state_[1], state_[2], state_[3]};
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  std::uint64_t state_[4];
};

}  // namespace opiso
