#pragma once
// Deterministic pseudo-random number generation for stimulus and tests.
//
// A thin wrapper around xoshiro256** with convenience draws used by the
// stimulus generators: uniform words, Bernoulli bits with exact
// probability, and range draws. Deterministic seeding keeps every
// experiment in EXPERIMENTS.md byte-reproducible. splitmix64 is the
// SplitMix64 output function, which also defines the counter-based
// uniform stimulus (sim/stimulus.hpp).

#include <cstdint>

namespace opiso {

inline constexpr std::uint64_t kSplitMixGamma = 0x9E3779B97F4A7C15ull;

/// SplitMix64's output function: a bijective 64-bit mix.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed = kSplitMixGamma) {
    // SplitMix64 seeding as recommended by the xoshiro authors.
    for (auto& s : state_) s = splitmix64(seed += kSplitMixGamma);
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

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  std::uint64_t state_[4];
};

}  // namespace opiso
