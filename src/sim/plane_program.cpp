#include "sim/plane_program.hpp"

#include "util/error.hpp"

namespace opiso {

namespace {

template <unsigned W>
inline const std::uint64_t* load(const std::uint64_t* planes, std::uint32_t off, unsigned w_in,
                                 unsigned b) {
  return b < w_in ? planes + off + b * W : kZeroPlaneBlock.data();
}

template <unsigned W>
inline bool block_zero(const std::uint64_t* p) {
  std::uint64_t acc = 0;
  for (unsigned k = 0; k < W; ++k) acc |= p[k];
  return acc == 0;
}

using U = std::uint64_t;

/// A bitwise gate over every output bit plane: po[k] = f(a[k], b[k],
/// active-lane mask[k]). A one-input cell has no b net (width 0), so it
/// reads the all-zero block there.
template <unsigned W, typename F>
inline void gate2(const PlaneOp& op, const U* planes, U* out, const U* ones, F f) {
  for (unsigned b = 0; b < op.w; ++b) {
    const U* __restrict pa = load<W>(planes, op.a, op.wa, b);
    const U* __restrict pb = load<W>(planes, op.b, op.wb, b);
    U* __restrict po = out + b * W;
    for (unsigned k = 0; k < W; ++k) po[k] = f(pa[k], pb[k], ones[k]);
  }
}

}  // namespace

PlaneProgram build_plane_program(const Netlist& nl, const std::vector<CellId>& cells,
                                 const std::vector<std::size_t>& plane_off,
                                 const std::vector<std::size_t>& state_off, unsigned words) {
  OPISO_REQUIRE(words == 1 || words == kPlaneWords, "plane program: unsupported block width");
  PlaneProgram prog;
  prog.words = words;
  prog.ops.reserve(cells.size());
  const auto net_off = [&](NetId n) {
    return static_cast<std::uint32_t>(plane_off[n.value()] * words);
  };
  const auto net_w = [&](NetId n) { return static_cast<std::uint16_t>(nl.net(n).width); };
  for (CellId id : cells) {
    const Cell& cell = nl.cell(id);
    if (cell.kind == CellKind::PrimaryInput || cell.kind == CellKind::PrimaryOutput) continue;
    PlaneOp op;
    op.kind = cell.kind;
    op.w = static_cast<std::uint16_t>(cell.width);
    op.out = net_off(cell.out);
    op.param = cell.param;
    if (!cell.ins.empty()) {
      op.a = net_off(cell.ins[0]);
      op.wa = net_w(cell.ins[0]);
    }
    if (cell.ins.size() > 1) {
      op.b = net_off(cell.ins[1]);
      op.wb = net_w(cell.ins[1]);
    }
    if (cell.ins.size() > 2) {
      op.c = net_off(cell.ins[2]);
      op.wc = net_w(cell.ins[2]);
    }
    if (cell.kind == CellKind::Reg || cell_kind_is_latch(cell.kind)) {
      op.state = static_cast<std::uint32_t>(state_off[id.value()] * words);
    }
    if (cell.kind == CellKind::Reg) {
      PlaneRegOp r;
      r.w = op.w;
      r.wd = op.wa;
      r.d = op.a;
      r.en = op.b;
      r.state = op.state;
      prog.regs.push_back(r);
    }
    prog.ops.push_back(op);
  }
  return prog;
}

namespace {

// The kernels are instantiated per block width W (words per plane
// block), so every per-block loop has a fixed trip count. The
// per-block operand pointers below are __restrict: a cell's output
// net is always distinct from its input nets (comb loops are rejected
// by netlist validation), so the written block never overlaps a read
// block and the compiler may fuse each W-word loop into vector ops
// without runtime alias checks. Inputs may alias each other (e.g.
// mul x*x) — reads through two restrict pointers are allowed.
template <unsigned W>
void eval_ops(const PlaneProgram& prog, std::uint64_t* planes, std::uint64_t* state,
              const std::uint64_t* ones) {
  for (const PlaneOp& op : prog.ops) {
    const unsigned w = op.w;
    std::uint64_t* out = planes + op.out;
    switch (op.kind) {
      case CellKind::PrimaryInput:
      case CellKind::PrimaryOutput:
        break;
      case CellKind::Constant:
        for (unsigned b = 0; b < w; ++b) {
          std::uint64_t* __restrict po = out + b * W;
          if ((op.param >> b) & 1) {
            for (unsigned k = 0; k < W; ++k) po[k] = ones[k];
          } else {
            for (unsigned k = 0; k < W; ++k) po[k] = 0;
          }
        }
        break;
      case CellKind::Reg: {
        const std::uint64_t* __restrict st = state + op.state;
        for (unsigned b = 0; b < w; ++b) {
          std::uint64_t* __restrict po = out + b * W;
          for (unsigned k = 0; k < W; ++k) po[k] = st[b * W + k];
        }
        break;
      }
      case CellKind::Add: {
        std::uint64_t carry[W] = {};
        for (unsigned b = 0; b < w; ++b) {
          const std::uint64_t* __restrict pa = load<W>(planes, op.a, op.wa, b);
          const std::uint64_t* __restrict pb = load<W>(planes, op.b, op.wb, b);
          std::uint64_t* __restrict po = out + b * W;
          for (unsigned k = 0; k < W; ++k) {
            const std::uint64_t axb = pa[k] ^ pb[k];
            po[k] = axb ^ carry[k];
            carry[k] = (pa[k] & pb[k]) | (carry[k] & axb);
          }
        }
        break;
      }
      case CellKind::Sub: {
        // a - b == a + ~b + 1: carry starts at all-ones; ~b is taken on
        // the width-masked value, so planes past b's width become ones —
        // exactly the scalar 64-bit two's-complement pattern.
        std::uint64_t carry[W];
        for (unsigned k = 0; k < W; ++k) carry[k] = ones[k];
        for (unsigned b = 0; b < w; ++b) {
          const std::uint64_t* __restrict pa = load<W>(planes, op.a, op.wa, b);
          const std::uint64_t* __restrict pb = load<W>(planes, op.b, op.wb, b);
          std::uint64_t* __restrict po = out + b * W;
          for (unsigned k = 0; k < W; ++k) {
            const std::uint64_t nb = ~pb[k] & ones[k];
            const std::uint64_t axb = pa[k] ^ nb;
            po[k] = axb ^ carry[k];
            carry[k] = (pa[k] & nb) | (carry[k] & axb);
          }
        }
        break;
      }
      case CellKind::Mul: {
        // Shift-and-add over bit planes (mod 2^w, like word arithmetic).
        for (unsigned b = 0; b < w; ++b) {
          std::uint64_t* __restrict po = out + b * W;
          for (unsigned k = 0; k < W; ++k) po[k] = 0;
        }
        for (unsigned j = 0; j < op.wb && j < w; ++j) {
          const std::uint64_t* __restrict bj = load<W>(planes, op.b, op.wb, j);
          if (block_zero<W>(bj)) continue;
          std::uint64_t carry[W] = {};
          for (unsigned k2 = 0; j + k2 < w; ++k2) {
            const std::uint64_t* __restrict pa = load<W>(planes, op.a, op.wa, k2);
            std::uint64_t* __restrict po = out + (j + k2) * W;
            std::uint64_t carry_acc = 0;
            for (unsigned k = 0; k < W; ++k) {
              const std::uint64_t p = pa[k] & bj[k];
              const std::uint64_t cur = po[k];
              const std::uint64_t cxp = cur ^ p;
              po[k] = cxp ^ carry[k];
              carry[k] = (cur & p) | (carry[k] & cxp);
              carry_acc |= carry[k];
            }
            if (carry_acc == 0 && k2 >= op.wa) break;  // nothing left to propagate
          }
        }
        break;
      }
      case CellKind::Eq: {
        const unsigned wmax = std::max<unsigned>(op.wa, op.wb);
        std::uint64_t eq[W];
        for (unsigned k = 0; k < W; ++k) eq[k] = ones[k];
        for (unsigned b = 0; b < wmax; ++b) {
          const std::uint64_t* __restrict pa = load<W>(planes, op.a, op.wa, b);
          const std::uint64_t* __restrict pb = load<W>(planes, op.b, op.wb, b);
          for (unsigned k = 0; k < W; ++k) eq[k] &= ~(pa[k] ^ pb[k]) & ones[k];
        }
        for (unsigned k = 0; k < W; ++k) out[k] = eq[k];
        break;
      }
      case CellKind::Lt: {
        // LSB-to-MSB scan: lt_b = (!a_b & b_b) | (a_b == b_b) & lt_{b-1}.
        const unsigned wmax = std::max<unsigned>(op.wa, op.wb);
        std::uint64_t lt[W] = {};
        for (unsigned b = 0; b < wmax; ++b) {
          const std::uint64_t* __restrict pa = load<W>(planes, op.a, op.wa, b);
          const std::uint64_t* __restrict pb = load<W>(planes, op.b, op.wb, b);
          for (unsigned k = 0; k < W; ++k) {
            lt[k] = ((~pa[k] & ones[k]) & pb[k]) | ((~(pa[k] ^ pb[k]) & ones[k]) & lt[k]);
          }
        }
        for (unsigned k = 0; k < W; ++k) out[k] = lt[k];
        break;
      }
      case CellKind::Shl:
        for (unsigned b = 0; b < w; ++b) {
          std::uint64_t* __restrict po = out + b * W;
          if (op.param <= b && op.param < 64) {
            const std::uint64_t* __restrict pa =
                load<W>(planes, op.a, op.wa, b - static_cast<unsigned>(op.param));
            for (unsigned k = 0; k < W; ++k) po[k] = pa[k];
          } else {
            for (unsigned k = 0; k < W; ++k) po[k] = 0;
          }
        }
        break;
      case CellKind::Shr:
        for (unsigned b = 0; b < w; ++b) {
          std::uint64_t* __restrict po = out + b * W;
          if (op.param < 64) {
            const std::uint64_t* __restrict pa =
                load<W>(planes, op.a, op.wa, b + static_cast<unsigned>(op.param));
            for (unsigned k = 0; k < W; ++k) po[k] = pa[k];
          } else {
            for (unsigned k = 0; k < W; ++k) po[k] = 0;
          }
        }
        break;
      case CellKind::Not:
        gate2<W>(op, planes, out, ones, [](U a, U, U m) { return ~a & m; });
        break;
      case CellKind::Buf:
        gate2<W>(op, planes, out, ones, [](U a, U, U) { return a; });
        break;
      case CellKind::And:
        gate2<W>(op, planes, out, ones, [](U a, U b, U) { return a & b; });
        break;
      case CellKind::Or:
        gate2<W>(op, planes, out, ones, [](U a, U b, U) { return a | b; });
        break;
      case CellKind::Xor:
        gate2<W>(op, planes, out, ones, [](U a, U b, U) { return a ^ b; });
        break;
      case CellKind::Nand:
        gate2<W>(op, planes, out, ones, [](U a, U b, U m) { return ~(a & b) & m; });
        break;
      case CellKind::Nor:
        gate2<W>(op, planes, out, ones, [](U a, U b, U m) { return ~(a | b) & m; });
        break;
      case CellKind::Xnor:
        gate2<W>(op, planes, out, ones, [](U a, U b, U m) { return ~(a ^ b) & m; });
        break;
      case CellKind::Mux2: {
        const std::uint64_t* __restrict sel = load<W>(planes, op.a, op.wa, 0);
        for (unsigned b = 0; b < w; ++b) {
          const std::uint64_t* __restrict p0 = load<W>(planes, op.b, op.wb, b);
          const std::uint64_t* __restrict p1 = load<W>(planes, op.c, op.wc, b);
          std::uint64_t* __restrict po = out + b * W;
          for (unsigned k = 0; k < W; ++k) {
            po[k] = (sel[k] & p1[k]) | ((~sel[k] & ones[k]) & p0[k]);
          }
        }
        break;
      }
      case CellKind::Latch:
      case CellKind::IsoLatch: {
        // Transparent per lane while EN = 1; holds otherwise.
        const std::uint64_t* __restrict en = load<W>(planes, op.b, op.wb, 0);
        std::uint64_t* __restrict st = state + op.state;
        for (unsigned b = 0; b < w; ++b) {
          const std::uint64_t* __restrict pd = load<W>(planes, op.a, op.wa, b);
          std::uint64_t* __restrict po = out + b * W;
          for (unsigned k = 0; k < W; ++k) {
            st[b * W + k] = (en[k] & pd[k]) | ((~en[k] & ones[k]) & st[b * W + k]);
            po[k] = st[b * W + k];
          }
        }
        break;
      }
      case CellKind::IsoAnd: {
        const std::uint64_t* __restrict en = load<W>(planes, op.b, op.wb, 0);
        for (unsigned b = 0; b < w; ++b) {
          const std::uint64_t* __restrict pd = load<W>(planes, op.a, op.wa, b);
          std::uint64_t* __restrict po = out + b * W;
          for (unsigned k = 0; k < W; ++k) po[k] = en[k] & pd[k];
        }
        break;
      }
      case CellKind::IsoOr: {
        const std::uint64_t* __restrict en = load<W>(planes, op.b, op.wb, 0);
        for (unsigned b = 0; b < w; ++b) {
          const std::uint64_t* __restrict pd = load<W>(planes, op.a, op.wa, b);
          std::uint64_t* __restrict po = out + b * W;
          for (unsigned k = 0; k < W; ++k) po[k] = (en[k] & pd[k]) | (~en[k] & ones[k]);
        }
        break;
      }
    }
  }
}

template <unsigned W>
void clock_regs(const PlaneProgram& prog, const std::uint64_t* planes, std::uint64_t* state) {
  // ~en needs no lane mask here: inactive-lane state bits start 0 and
  // en/d planes are masked, so they can only stay 0.
  for (const PlaneRegOp& r : prog.regs) {
    const std::uint64_t* __restrict en = load<W>(planes, r.en, 1, 0);
    std::uint64_t* __restrict st = state + r.state;
    for (unsigned b = 0; b < r.w; ++b) {
      const std::uint64_t* __restrict pd = load<W>(planes, r.d, r.wd, b);
      for (unsigned k = 0; k < W; ++k) {
        st[b * W + k] = (en[k] & pd[k]) | (~en[k] & st[b * W + k]);
      }
    }
  }
}

}  // namespace

void eval_plane_program(const PlaneProgram& prog, std::uint64_t* planes, std::uint64_t* state,
                        const std::uint64_t* ones) {
  (prog.words == 1 ? eval_ops<1> : eval_ops<kPlaneWords>)(prog, planes, state, ones);
}

void clock_plane_program(const PlaneProgram& prog, const std::uint64_t* planes,
                         std::uint64_t* state) {
  (prog.words == 1 ? clock_regs<1> : clock_regs<kPlaneWords>)(prog, planes, state);
}

}  // namespace opiso
