// Structural passes: combinational loops, width hygiene, driver/fanout
// consistency. None of these need a dependency order, so they run (and
// report) even on designs validate() rejects.

#include <algorithm>
#include <string>

#include "lint/passes.hpp"

namespace opiso::lint {

namespace {

std::string wname(const Netlist& nl, NetId id) {
  const Net& n = nl.net(id);
  return "'" + n.name + "' (" + std::to_string(n.width) + "b)";
}

// --------------------------------------------------------------- comb_loop
class CombLoopPass final : public LintPass {
 public:
  [[nodiscard]] std::string_view name() const override { return "comb_loop"; }
  [[nodiscard]] bool requires_acyclic() const override { return false; }

  void run(LintContext& ctx, std::vector<Finding>& out, std::string& note) override {
    (void)note;
    const Netlist& nl = ctx.nl();
    for (const std::vector<CellId>& scc : ctx.comb_sccs()) {
      Finding f;
      f.code = ErrCode::LintCombLoop;
      f.severity = Severity::Error;
      f.message = "combinational cycle through " + describe_comb_cycle(nl, scc);
      for (CellId id : scc) {
        f.cells.push_back(nl.cell(id).name);
        if (f.source_line == 0) f.source_line = ctx.cell_line(id);
      }
      out.push_back(std::move(f));
    }
  }
};

// ------------------------------------------------------------------- width
class WidthPass final : public LintPass {
 public:
  [[nodiscard]] std::string_view name() const override { return "width"; }
  [[nodiscard]] bool requires_acyclic() const override { return false; }

  void run(LintContext& ctx, std::vector<Finding>& out, std::string& note) override {
    (void)note;
    const Netlist& nl = ctx.nl();
    for (CellId id : nl.cell_ids()) {
      const Cell& c = nl.cell(id);
      auto report = [&](ErrCode code, Severity severity, std::string message,
                        std::vector<NetId> nets) {
        Finding f;
        f.code = code;
        f.severity = severity;
        f.message = std::move(message);
        f.cells.push_back(c.name);
        for (NetId n : nets) f.nets.push_back(nl.net(n).name);
        f.source_line = ctx.cell_line(id);
        out.push_back(std::move(f));
      };

      switch (c.kind) {
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
        case CellKind::Xnor: {
          const unsigned wa = nl.net(c.ins[0]).width;
          const unsigned wb = nl.net(c.ins[1]).width;
          if (wa != wb) {
            report(ErrCode::LintWidth, Severity::Warning,
                   std::string(cell_kind_name(c.kind)) + " '" + c.name +
                       "' mixes operand widths " + wname(nl, c.ins[0]) + " vs " +
                       wname(nl, c.ins[1]) + " (narrow side zero-extends)",
                   {c.ins[0], c.ins[1]});
          }
          if (c.kind == CellKind::Mul && wa + wb > 64) {
            report(ErrCode::LintWidth, Severity::Warning,
                   "mul '" + c.name + "' full product needs " + std::to_string(wa + wb) +
                       " bits; result truncates to 64",
                   {c.ins[0], c.ins[1]});
          }
          break;
        }
        case CellKind::Shl:
        case CellKind::Shr: {
          const unsigned w = nl.net(c.ins[0]).width;
          if (c.param >= w) {
            report(ErrCode::LintWidth, Severity::Warning,
                   std::string(cell_kind_name(c.kind)) + " '" + c.name + "' shifts a " +
                       std::to_string(w) + "-bit value by " + std::to_string(c.param) +
                       " — the result is constant 0",
                   {c.ins[0]});
          }
          break;
        }
        case CellKind::Mux2: {
          const unsigned wa = nl.net(c.ins[1]).width;
          const unsigned wb = nl.net(c.ins[2]).width;
          if (wa != wb) {
            report(ErrCode::LintWidth, Severity::Warning,
                   "mux '" + c.name + "' legs differ: " + wname(nl, c.ins[1]) + " vs " +
                       wname(nl, c.ins[2]) + " (narrow leg zero-extends)",
                   {c.ins[1], c.ins[2]});
          }
          break;
        }
        default:
          break;
      }

      // Defensive: the add_* builders make this unconstructible, but a
      // hand-mutated or future-deserialized netlist may disagree with
      // the width rules — that is data corruption, not style.
      if (c.out.valid() && c.kind != CellKind::PrimaryInput && c.kind != CellKind::Constant) {
        const unsigned expected = nl.infer_width(c.kind, c.ins);
        if (nl.net(c.out).width != expected) {
          report(ErrCode::LintWidth, Severity::Error,
                 "cell '" + c.name + "' output " + wname(nl, c.out) + " contradicts inferred width " +
                     std::to_string(expected),
                 {c.out});
        }
      }
    }
  }
};

// ----------------------------------------------------------------- drivers
class DriversPass final : public LintPass {
 public:
  [[nodiscard]] std::string_view name() const override { return "drivers"; }
  [[nodiscard]] bool requires_acyclic() const override { return false; }

  void run(LintContext& ctx, std::vector<Finding>& out, std::string& note) override {
    (void)note;
    const Netlist& nl = ctx.nl();

    // Count drivers per net from the cell side; the net's own `driver`
    // field must agree. add_cell enforces single drivers, so anything
    // found here means the structure was mutated behind the API's back.
    std::vector<int> driver_count(nl.num_nets(), 0);
    for (CellId id : nl.cell_ids()) {
      const Cell& c = nl.cell(id);
      if (c.out.valid()) ++driver_count[c.out.value()];
    }

    for (NetId id : nl.net_ids()) {
      const Net& net = nl.net(id);
      auto report = [&](ErrCode code, Severity severity, std::string message) {
        Finding f;
        f.code = code;
        f.severity = severity;
        f.message = std::move(message);
        f.nets.push_back(net.name);
        f.source_line = ctx.net_line(id);
        out.push_back(std::move(f));
      };

      if (!net.driver.valid() || driver_count[id.value()] == 0) {
        report(ErrCode::LintUndriven, Severity::Error,
               "net " + wname(nl, id) + " has no driver");
        continue;
      }
      if (driver_count[id.value()] > 1) {
        report(ErrCode::LintMultiDriven, Severity::Error,
               "net " + wname(nl, id) + " is driven by " +
                   std::to_string(driver_count[id.value()]) + " cell outputs");
      }
      if (nl.cell(net.driver).out != id) {
        report(ErrCode::LintMultiDriven, Severity::Error,
               "net " + wname(nl, id) + " names driver '" + nl.cell(net.driver).name +
                   "' whose output is a different net");
      }
      for (const Pin& pin : net.fanouts) {
        const Cell& sink = nl.cell(pin.cell);
        if (pin.port < 0 || static_cast<std::size_t>(pin.port) >= sink.ins.size() ||
            sink.ins[static_cast<std::size_t>(pin.port)] != id) {
          report(ErrCode::LintMultiDriven, Severity::Error,
                 "net " + wname(nl, id) + " fanout pin (" + sink.name + ", port " +
                     std::to_string(pin.port) + ") disagrees with the sink's input list");
        }
      }
      if (net.fanouts.empty()) {
        report(ErrCode::LintDangling, Severity::Warning,
               "net " + wname(nl, id) + " drives nothing");
      }
    }
  }
};

}  // namespace

std::unique_ptr<LintPass> make_comb_loop_pass() { return std::make_unique<CombLoopPass>(); }
std::unique_ptr<LintPass> make_width_pass() { return std::make_unique<WidthPass>(); }
std::unique_ptr<LintPass> make_drivers_pass() { return std::make_unique<DriversPass>(); }

}  // namespace opiso::lint
