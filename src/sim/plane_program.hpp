#pragma once
// Structure-of-arrays compilation of a netlist for plane evaluation.
//
// The lane-parallel engine walks cells in topological order every
// macro-cycle; chasing Cell/Net objects through the netlist on that
// walk costs more than the bit-plane arithmetic for small designs. A
// PlaneProgram flattens the walk once: per evaluated cell one PlaneOp
// holding the opcode, the pre-resolved plane-word offsets of its
// output/input blocks, the widths needed for zero-extension, and the
// state offset for stateful kinds. eval_plane_program is then a tight
// loop over a contiguous op array.
//
// Offsets are in words into the planes/state arrays (bit-plane index
// times the program's block width `words`); bit b of an operand lives
// at off + b*words. The width is 1 (up to 64 lanes) or kPlaneWords.

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/planes.hpp"

namespace opiso {

struct PlaneOp {
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  CellKind kind = CellKind::Buf;
  std::uint16_t w = 0;                 ///< output width (bits)
  std::uint16_t wa = 0, wb = 0, wc = 0;  ///< input net widths (zero-extension bounds)
  std::uint32_t out = 0;               ///< word offset of the output's bit-0 block
  std::uint32_t a = kNone, b = kNone, c = kNone;  ///< input word offsets
  std::uint32_t state = kNone;         ///< word offset into the state array
  std::uint64_t param = 0;
};

/// One register capture: on the clock edge, state <- D where EN bit 0.
struct PlaneRegOp {
  std::uint16_t w = 0;   ///< register width
  std::uint16_t wd = 0;  ///< D net width
  std::uint32_t d = 0;   ///< D word offset
  std::uint32_t en = 0;  ///< EN word offset (bit 0 used)
  std::uint32_t state = 0;
};

struct PlaneProgram {
  unsigned words = kPlaneWords;  ///< block width: 64-bit words per bit plane
  std::vector<PlaneOp> ops;      ///< settle ops, topological order
  std::vector<PlaneRegOp> regs;  ///< clock-edge captures
};

/// Compile `cells` (must be topologically ordered; PIs/POs are
/// skipped) against plane/state offset maps given in bit-plane units,
/// for blocks of `words` words (1 or kPlaneWords).
[[nodiscard]] PlaneProgram build_plane_program(const Netlist& nl,
                                               const std::vector<CellId>& cells,
                                               const std::vector<std::size_t>& plane_off,
                                               const std::vector<std::size_t>& state_off,
                                               unsigned words);

/// One combinational settle: evaluate every op into `planes`,
/// level-sensitive latches updating `state`. `ones` is the active-lane
/// mask block (prog.words words); every written plane stays masked to
/// it (the lane-plane invariant).
void eval_plane_program(const PlaneProgram& prog, std::uint64_t* planes, std::uint64_t* state,
                        const std::uint64_t* ones);

/// The clock edge for the program's registers (reads settled planes).
void clock_plane_program(const PlaneProgram& prog, const std::uint64_t* planes,
                         std::uint64_t* state);

}  // namespace opiso
