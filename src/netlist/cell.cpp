#include "netlist/cell.hpp"

#include <algorithm>
#include <array>
#include <string>

namespace opiso {

namespace {
constexpr std::array<std::string_view, kNumCellKinds> kNames = {
    "input", "output", "const", "add", "sub",  "mul",  "eq",   "lt",
    "shl",   "shr",    "not",   "buf", "and",  "or",   "xor",  "nand",
    "nor",   "xnor",   "mux2",  "reg", "latch", "iso_and", "iso_or", "iso_latch",
};
}  // namespace

std::string_view cell_kind_name(CellKind kind) {
  return kNames[static_cast<int>(kind)];
}

CellKind cell_kind_from_name(std::string_view name) {
  for (int i = 0; i < kNumCellKinds; ++i) {
    if (kNames[i] == name) return static_cast<CellKind>(i);
  }
  throw ParseError("unknown cell kind: '" + std::string(name) + "'");
}

int cell_kind_num_inputs(CellKind kind) {
  switch (kind) {
    case CellKind::PrimaryInput:
    case CellKind::Constant:
      return 0;
    case CellKind::PrimaryOutput:
    case CellKind::Not:
    case CellKind::Buf:
    case CellKind::Shl:
    case CellKind::Shr:
      return 1;
    case CellKind::Add:
    case CellKind::Sub:
    case CellKind::Mul:
    case CellKind::Eq:
    case CellKind::Lt:
    case CellKind::And:
    case CellKind::Or:
    case CellKind::Xor:
    case CellKind::Nand:
    case CellKind::Nor:
    case CellKind::Xnor:
    case CellKind::Reg:
    case CellKind::Latch:
    case CellKind::IsoAnd:
    case CellKind::IsoOr:
    case CellKind::IsoLatch:
      return 2;
    case CellKind::Mux2:
      return 3;
  }
  throw Error("cell_kind_num_inputs: invalid kind");
}

unsigned cell_kind_width(CellKind kind, std::span<const unsigned> in_widths) {
  const auto w = [&](std::size_t i) {
    OPISO_REQUIRE(i < in_widths.size(), "cell_kind_width: missing input width");
    return in_widths[i];
  };
  switch (kind) {
    case CellKind::PrimaryInput:
    case CellKind::Constant:
      throw Error("cell_kind_width: source kinds carry their own width");
    case CellKind::Add:
    case CellKind::Sub:
    case CellKind::And:
    case CellKind::Or:
    case CellKind::Xor:
    case CellKind::Nand:
    case CellKind::Nor:
    case CellKind::Xnor:
      return std::max(w(0), w(1));
    case CellKind::Mul:
      return std::min(64u, w(0) + w(1));
    case CellKind::Eq:
    case CellKind::Lt:
      return 1;
    case CellKind::Mux2:
      return std::max(w(1), w(2));
    case CellKind::PrimaryOutput:
    case CellKind::Shl:
    case CellKind::Shr:
    case CellKind::Not:
    case CellKind::Buf:
    case CellKind::Reg:
    case CellKind::Latch:
    case CellKind::IsoAnd:
    case CellKind::IsoOr:
    case CellKind::IsoLatch:
      return w(0);
  }
  throw Error("cell_kind_width: invalid kind");
}

std::uint64_t cell_kind_eval(CellKind kind, std::uint64_t param, unsigned out_width,
                             std::span<const std::uint64_t> in) {
  std::uint64_t out = 0;
  switch (kind) {
    case CellKind::Add: out = in[0] + in[1]; break;
    case CellKind::Sub: out = in[0] - in[1]; break;
    case CellKind::Mul: out = in[0] * in[1]; break;
    case CellKind::Eq: out = in[0] == in[1]; break;
    case CellKind::Lt: out = in[0] < in[1]; break;
    case CellKind::Shl: out = param >= 64 ? 0 : in[0] << param; break;
    case CellKind::Shr: out = param >= 64 ? 0 : in[0] >> param; break;
    case CellKind::Not: out = ~in[0]; break;
    case CellKind::Buf: out = in[0]; break;
    case CellKind::And: out = in[0] & in[1]; break;
    case CellKind::Or: out = in[0] | in[1]; break;
    case CellKind::Xor: out = in[0] ^ in[1]; break;
    case CellKind::Nand: out = ~(in[0] & in[1]); break;
    case CellKind::Nor: out = ~(in[0] | in[1]); break;
    case CellKind::Xnor: out = ~(in[0] ^ in[1]); break;
    case CellKind::Mux2: out = (in[0] & 1) ? in[2] : in[1]; break;
    case CellKind::IsoAnd: out = (in[1] & 1) ? in[0] : 0; break;
    case CellKind::IsoOr: out = (in[1] & 1) ? in[0] : ~std::uint64_t{0}; break;
    default:
      throw NetlistError("cell_kind_eval: '" + std::string(cell_kind_name(kind)) +
                         "' is not an operator");
  }
  return out & width_mask(out_width);
}

std::string_view cell_port_name(CellKind kind, int port) {
  switch (kind) {
    case CellKind::Mux2: {
      constexpr std::array<std::string_view, 3> names = {"S", "A", "B"};
      OPISO_REQUIRE(port >= 0 && port < 3, "Mux2 port out of range");
      return names[static_cast<size_t>(port)];
    }
    case CellKind::Reg:
    case CellKind::Latch: {
      constexpr std::array<std::string_view, 2> names = {"D", "EN"};
      OPISO_REQUIRE(port >= 0 && port < 2, "Reg/Latch port out of range");
      return names[static_cast<size_t>(port)];
    }
    case CellKind::IsoAnd:
    case CellKind::IsoOr:
    case CellKind::IsoLatch: {
      constexpr std::array<std::string_view, 2> names = {"D", "AS"};
      OPISO_REQUIRE(port >= 0 && port < 2, "isolation cell port out of range");
      return names[static_cast<size_t>(port)];
    }
    default: {
      constexpr std::array<std::string_view, 3> names = {"A", "B", "C"};
      OPISO_REQUIRE(port >= 0 && port < 3, "port out of range");
      return names[static_cast<size_t>(port)];
    }
  }
}

}  // namespace opiso
