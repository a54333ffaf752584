#pragma once
// Word-level to gate-level lowering.
//
// Expands every multi-bit cell into 1-bit primitives: ripple-carry
// adders/subtractors, array multipliers, per-bit muxes and registers,
// borrow-chain comparators, and per-bit isolation banks. Constant
// shifts lower to pure wiring. The result is a Netlist whose nets are
// all 1-bit wide, suitable for bit-level BDD construction (formal
// equivalence checking of the isolation transform, src/verify) and for
// gate-granularity activity analysis — the abstraction level at which
// the guarded-evaluation baseline [9] operates.
//
// Interface bits are named "<word>.<i>"; BitStimulusAdapter drives the
// lowered design from any word-level stimulus so lock-step equivalence
// runs do not need hand-written bit vectors.

#include <unordered_map>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/stimulus.hpp"

namespace opiso {

struct GateLevelResult {
  Netlist netlist;
  /// Old net id value -> bit nets (LSB first) in the lowered design.
  std::unordered_map<std::uint32_t, std::vector<NetId>> bits;

  [[nodiscard]] const std::vector<NetId>& bits_of(NetId word_net) const;
};

/// Lower `nl` to 1-bit primitives. Throws NetlistError on cells that
/// have no gate-level expansion (none currently).
[[nodiscard]] GateLevelResult lower_to_gates(const Netlist& nl);

/// Drives a lowered design's "<word>.<i>" bit inputs by slicing values
/// drawn from a word-level stimulus once per word per cycle, in the
/// word design's primary-input order: the draws a word-level run of
/// the same stimulus makes, so the bit nets carry exactly its bits.
class BitStimulusAdapter : public Stimulus {
 public:
  /// `word_design` is the original netlist the values are drawn for;
  /// `inner` must outlive the adapter.
  BitStimulusAdapter(const Netlist& word_design, Stimulus& inner);
  std::uint64_t next(const Netlist& nl, CellId pi, std::uint64_t cycle) override;

 private:
  const Netlist& word_design_;
  Stimulus& inner_;
  std::uint64_t cached_cycle_ = ~std::uint64_t{0};
  std::unordered_map<std::string, std::uint64_t> cached_values_;
};

}  // namespace opiso
