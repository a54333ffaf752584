#pragma once
// Formal equivalence checking of the isolation transform.
//
// The paper notes that latch insertion complicates verification
// (Sec. 5.2); this module provides the machinery to *prove* the
// transform safe instead of only simulating it. Both designs are
// lowered to gates and the next-state/output functions each obligation
// reads are built as ROBDDs (verify/grounder.hpp) over a shared variable
// set (primary-input bits and register output bits, matched by name —
// the transform never renames either).
//
// Soundness argument (induction over cycles, equal reset states):
//   * every register pair loads under identical enables,
//   * whenever the enable holds, both load identical values,
//   * registers that do not load hold equal previous values,
//   * all primary outputs are identical functions of (PIs, state).
// Together these imply cycle-by-cycle equality of all observed outputs.
// A register bit of the original that no primary output reads, directly
// or through another register's D or EN, may be missing from the
// transformed design (an optimizer drops it); a missing bit that an
// output reads fails the check.
//
// check_isolation_equivalence() verifies exactly those conditions. It
// requires latch-free designs (AND/OR isolation styles) because
// transparent latches have no single-cut combinational semantics: a
// latch design gets the `unsupported` verdict, never "not equivalent".
// The latch style remains covered by the simulation-based lock-step
// tests.

#include <string>

#include "boolfn/bdd.hpp"
#include "netlist/netlist.hpp"

namespace opiso {

struct EquivResult {
  bool equivalent = false;
  bool unsupported = false;  ///< no verdict: the checker cannot model the designs
  /// No verdict: the BDD budget ran out while `stopped_at` was being built.
  bool budget_exhausted = false;
  std::string reason;  ///< first failing obligation, or why there is no verdict
  std::string stopped_at;  ///< the obligation the budget stopped (budget_exhausted only)
  /// Obligations proven, plus the failing one when the designs differ.
  std::size_t obligations_checked = 0;
  std::size_t bdd_nodes = 0;  ///< manager size after all checks, or when the budget ran out
};

/// Prove that `transformed` is observationally equivalent to `original`
/// (same PO streams for every input stream from the all-zero state).
/// Both netlists must be latch-free; widths must keep bit-level BDDs
/// tractable (array multipliers beyond ~8x8 explode by nature). The
/// internal BddManager is built with `budget`; a blow-up stops the proof
/// with the budget_exhausted verdict, whose reason is the budget's
/// message, instead of running away.
[[nodiscard]] EquivResult check_isolation_equivalence(const Netlist& original,
                                                      const Netlist& transformed,
                                                      const BddBudget& budget = {});

}  // namespace opiso
