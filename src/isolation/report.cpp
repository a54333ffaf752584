#include "isolation/report.hpp"

#include <iomanip>
#include <ostream>
#include <sstream>

namespace opiso {

std::string format_isolation_summary(const IsolationResult& result) {
  std::ostringstream os;
  os << std::fixed;
  os << "operand isolation summary for '" << result.netlist.name() << "'\n";
  os << "  power: " << std::setprecision(3) << result.power_before_mw << " mW -> "
     << result.power_after_mw << " mW (" << std::setprecision(2)
     << -result.power_reduction_pct() << "%)\n";
  os << "  area:  " << std::setprecision(0) << result.area_before_um2 << " um^2 -> "
     << result.area_after_um2 << " um^2 (" << std::showpos << std::setprecision(2)
     << result.area_increase_pct() << std::noshowpos << "%)\n";
  os << "  slack: " << std::setprecision(2) << result.slack_before_ns << " ns -> "
     << result.slack_after_ns << " ns\n";
  os << "  isolated modules: " << result.records.size() << "\n";
  for (const IsolationRecord& rec : result.records) {
    os << "    " << result.netlist.cell(rec.candidate).name << ": "
       << isolation_style_name(rec.style) << " bank, " << rec.isolated_bits << " bits, "
       << rec.literal_count << " activation literals, AS net '"
       << result.netlist.net(rec.as_net).name << "'\n";
  }
  return os.str();
}

}  // namespace opiso
