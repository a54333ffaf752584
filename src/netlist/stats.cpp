#include "netlist/stats.hpp"

#include <ostream>
#include <sstream>

namespace opiso {

NetlistStats compute_stats(const Netlist& nl) {
  NetlistStats s;
  s.num_cells = nl.num_cells();
  s.num_nets = nl.num_nets();
  for (CellId id : nl.cell_ids()) {
    const Cell& c = nl.cell(id);
    ++s.cells_by_kind[static_cast<size_t>(c.kind)];
    if (cell_kind_is_arith(c.kind)) ++s.num_arith_modules;
    if (cell_kind_is_register(c.kind)) ++s.num_registers;
    if (cell_kind_is_isolation(c.kind)) ++s.num_isolation_cells;
  }
  for (NetId id : nl.net_ids()) s.total_data_bits += nl.net(id).width;
  return s;
}

std::string stats_to_string(const NetlistStats& s) {
  std::ostringstream os;
  os << "cells: " << s.num_cells << ", nets: " << s.num_nets
     << ", arith modules: " << s.num_arith_modules << ", registers: " << s.num_registers
     << ", isolation cells: " << s.num_isolation_cells << ", data bits: " << s.total_data_bits
     << "\n";
  for (int k = 0; k < kNumCellKinds; ++k) {
    if (s.cells_by_kind[static_cast<size_t>(k)] == 0) continue;
    os << "  " << cell_kind_name(static_cast<CellKind>(k)) << ": "
       << s.cells_by_kind[static_cast<size_t>(k)] << "\n";
  }
  return os.str();
}

void write_dot(std::ostream& os, const Netlist& nl) {
  os << "digraph \"" << nl.name() << "\" {\n  rankdir=LR;\n";
  for (CellId id : nl.cell_ids()) {
    const Cell& c = nl.cell(id);
    os << "  c" << id.value() << " [label=\"" << c.name << "\\n" << cell_kind_name(c.kind)
       << "\"";
    if (cell_kind_is_arith(c.kind)) os << ", shape=box";
    if (cell_kind_is_register(c.kind)) os << ", shape=box, peripheries=2";
    if (cell_kind_is_isolation(c.kind)) os << ", style=filled, fillcolor=lightgray";
    os << "];\n";
  }
  for (NetId nid : nl.net_ids()) {
    const Net& n = nl.net(nid);
    for (const Pin& pin : n.fanouts) {
      os << "  c" << n.driver.value() << " -> c" << pin.cell.value() << " [label=\"" << n.name
         << "[" << n.width << "]\"];\n";
    }
  }
  os << "}\n";
}

}  // namespace opiso
