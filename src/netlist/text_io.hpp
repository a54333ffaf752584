#pragma once
// Textual netlist format (.rtn) — exact round-trip of the data model.
//
//   # comment
//   design <name>
//   net <name> <width>
//   cell <name> <kind> [param=<uint>] -> <outnet|-> : <in1> <in2> ...
//
// Nets are declared before the cells that use them; cells appear in
// insertion order, which add_cell re-validates on load (single driver,
// pin counts, width rules).

#include <iosfwd>
#include <string>

#include "netlist/netlist.hpp"
#include "netlist/source_map.hpp"

namespace opiso {

void write_netlist(std::ostream& os, const Netlist& nl);
[[nodiscard]] std::string netlist_to_string(const Netlist& nl);

/// Load-time knobs. `validate = false` skips the final validate() call so
/// structurally suspect designs (combinational cycles, dangling nets) can
/// be loaded for *analysis* — the lint driver wants to report on such
/// designs, not be rejected by the loader. Per-statement checks
/// (add_net/add_cell width and pin rules) always run.
struct NetlistReadOptions {
  bool validate = true;
};

[[nodiscard]] Netlist read_netlist(std::istream& is);
[[nodiscard]] Netlist read_netlist(std::istream& is, const NetlistReadOptions& options,
                                   SourceMap* source_map = nullptr);
[[nodiscard]] Netlist netlist_from_string(const std::string& text);

/// File wrapper around read_netlist; a path that cannot be opened
/// throws IoError.
[[nodiscard]] Netlist load_netlist(const std::string& path);
[[nodiscard]] Netlist load_netlist(const std::string& path, const NetlistReadOptions& options,
                                   SourceMap* source_map = nullptr);

}  // namespace opiso
