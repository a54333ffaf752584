#pragma once
// Structural traversals over the netlist.
//
// - topological_order: evaluation order of all cells; registers' outputs
//   are sources (their Q depends only on state), everything else —
//   including transparent latches — is ordered after its inputs. Throws
//   NetlistError on a combinational cycle.
// - combinational_blocks: the partition Algorithm 1 line 1 computes —
//   maximal regions of combinational cells bounded by registers, primary
//   inputs and primary outputs (Sec. 3 / 5.3).
// - transitive fanin/fanout cones, used for multiplexing-function
//   derivation and the legality check that activation logic never taps a
//   signal inside the isolated module's own fanout.

#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace opiso {

/// Cells in dependency order: every combinational cell appears after the
/// drivers of all its inputs. Register cells appear in the order their
/// inputs become available (they are *consumers* in this order; their
/// outputs are treated as sources).
[[nodiscard]] std::vector<CellId> topological_order(const Netlist& nl);

/// One combinational block: the cells (no Reg/PI/Const cells; POs are
/// excluded too) of one connected component of the combinational graph.
struct CombBlock {
  int index = 0;
  std::vector<CellId> cells;  ///< in topological order
};

/// Partition all combinational cells (gates, muxes, arith modules,
/// latches, isolation cells, comparators, shifters) into connected
/// components bounded by sequential cells / PIs / POs / constants.
[[nodiscard]] std::vector<CombBlock> combinational_blocks(const Netlist& nl);

/// Map each cell to its block index (-1 for non-combinational cells).
[[nodiscard]] std::vector<int> block_index_of_cells(const Netlist& nl,
                                                    const std::vector<CombBlock>& blocks);

/// Transitive fanout cone of a cell through combinational cells only
/// (stops at register inputs and primary outputs; the stopping cells are
/// *not* included). Includes `root` itself.
[[nodiscard]] std::vector<CellId> combinational_fanout_cone(const Netlist& nl, CellId root);

/// Transitive fanin cone through combinational cells only (stops at
/// register outputs, primary inputs and constants). Includes `root`.
[[nodiscard]] std::vector<CellId> combinational_fanin_cone(const Netlist& nl, CellId root);

/// True if `net` is (transitively, combinationally) driven by the output
/// of `cell` — i.e. inserting logic from `net` to an input of `cell`
/// would create a combinational cycle.
[[nodiscard]] bool net_in_combinational_fanout(const Netlist& nl, CellId cell, NetId net);

/// Strongly connected components of the combinational cell graph that
/// form cycles: components of more than one cell, plus single cells that
/// feed themselves. Iterative Tarjan with an explicit frame stack and
/// on-stack marks — cyclic inputs must come back as findings, never as a
/// hung walk or an exhausted call stack. Deterministic: cells within a
/// component are sorted by id, components ordered by their first cell.
/// Safe to call on netlists that fail validate() (this is how the cycle
/// diagnostics are produced in the first place).
[[nodiscard]] std::vector<std::vector<CellId>> combinational_sccs(const Netlist& nl);

/// Human-readable path through one cycle: "'a' -> 'b' -> 'a'" (at most
/// four distinct cells named, then "... (+N more)").
[[nodiscard]] std::string describe_comb_cycle(const Netlist& nl,
                                              const std::vector<CellId>& scc);

}  // namespace opiso
