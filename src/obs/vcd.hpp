#pragma once
// IEEE-1364 VCD export of a captured trace, and the matching reader.
//
// The writer serializes a CycleTrace at sample granularity: timestamp
// #(10 * first cycle of the sample), one value change per net whose
// snapshot differs from the previous sample's, plus — when a PowerTrace
// is supplied — two synthetic real-valued signals per cell
// (`e_<cell>` = femtojoules dissipated in the sample, `t_<cell>` =
// input toggles in the sample) so waveform viewers show the power
// waveform time-aligned with the logic activity that caused it. Net
// values are lane 0's; the power signals are summed over every lane,
// as in the power trace. A $comment in the header says so.
// Output is fully deterministic: identifier codes are assigned in
// net/cell order from the printable base-94 alphabet, members are
// emitted in netlist order, and no timestamps or environment data are
// embedded.
//
// parse_vcd() reads the subset this writer emits: $timescale/$scope/
// $var/$upscope/$comment/$enddefinitions, `#t` timestamps, and
// scalar/vector/real value changes. It validates as it reads —
// undeclared identifier codes, width overflows and non-monotonic
// timestamps are ParseErrors — which is what makes `opiso vcd-check` a
// meaningful round-trip gate in CI.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/netlist.hpp"
#include "power/power_trace.hpp"
#include "sim/cycle_trace.hpp"

namespace opiso::obs {

/// Write `trace` (which must have value snapshots, i.e. a capture with
/// record_values; they are the engine's lane-0 values) as a VCD
/// document. When `power` is non-null it must come from the same
/// trace; per-cell energy/toggle signals are emitted alongside the nets.
void write_vcd(std::ostream& os, const Netlist& nl, const CycleTrace& trace,
               const PowerTrace* power = nullptr);

/// One $var declaration.
struct VcdVar {
  std::string type;  ///< "wire", "real", ...
  unsigned width = 0;
  std::string id;    ///< identifier code
  std::string name;  ///< reference name
};

/// Parsed skeleton of a VCD document: declarations plus change
/// statistics (enough to gate on structure without holding every value).
struct VcdDocument {
  std::string timescale;
  std::vector<std::string> scopes;
  std::vector<VcdVar> vars;
  std::uint64_t num_timestamps = 0;
  std::uint64_t num_changes = 0;       ///< value changes across all timestamps
  std::uint64_t first_timestamp = 0;
  std::uint64_t last_timestamp = 0;

  [[nodiscard]] const VcdVar* find_var(std::string_view name) const;
};

/// Parse and validate. Throws opiso::ParseError on malformed input,
/// undeclared identifiers, vector values wider than their declaration,
/// or non-increasing timestamps.
[[nodiscard]] VcdDocument parse_vcd(std::string_view text);

}  // namespace opiso::obs
