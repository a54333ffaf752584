// Semantic passes: dead logic, isolation soundness, isolation overhead.
// These require an acyclic design (they consume the Sec.-3 observability
// derivation and STA); the framework skips them, with a note, when the
// comb_loop pass has findings.

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "lint/passes.hpp"
#include "verify/grounder.hpp"

namespace opiso::lint {

namespace {

/// lint's grounder: it expands the 1-bit control logic (1-bit operators
/// over 1-bit inputs, except multipliers and shifts) and makes every
/// other net a NetVarMap variable — primary inputs, register and latch
/// outputs, and wide operands' results. Expanding through the control
/// logic is what makes the soundness check meaningful: the synthesized
/// AS logic and the derived observability function must meet in the
/// same variable space, not each behind an opaque variable of its own.
NetGrounder control_grounder(LintContext& ctx, BddManager& mgr) {
  const auto leaf = [&ctx, &mgr](NetId net, const Cell& drv) -> std::optional<BddRef> {
    const Netlist& nl = ctx.nl();
    const auto one_bit = [&nl](NetId n) { return nl.net(n).width == 1; };
    const bool expand = one_bit(net) && cell_kind_is_operator(drv.kind) &&
                        drv.kind != CellKind::Mul && drv.kind != CellKind::Shl &&
                        drv.kind != CellKind::Shr &&
                        std::all_of(drv.ins.begin(), drv.ins.end(), one_bit);
    if (expand) return std::nullopt;
    return mgr.var(ctx.vars().var_of(nl, net));
  };
  return NetGrounder(ctx.nl(), mgr, leaf);
}

/// An observability function over the grounded nets of its variables.
BddRef ground_expr(LintContext& ctx, BddManager& mgr, NetGrounder& grounder, ExprRef e) {
  return mgr.from_expr(ctx.pool(), e,
                       [&](BoolVar v) { return grounder.of_net(ctx.vars().net_of(v)); });
}

/// One satisfying assignment of f over its support, rendered with net
/// names ("sel=0, en1=1"). At most `max_vars` variables are printed.
std::string render_counterexample(BddManager& mgr, const NetVarMap& vars, const Netlist& nl,
                                  BddRef f, std::size_t max_vars = 6) {
  std::string s;
  BddRef cur = f;
  std::size_t printed = 0;
  for (BoolVar v : mgr.support(f)) {
    const BddRef hi = mgr.restrict_var(cur, v, true);
    const bool val = !mgr.is_zero(hi);
    cur = val ? hi : mgr.restrict_var(cur, v, false);
    if (printed++ >= max_vars) {
      s += ", ...";
      break;
    }
    if (!s.empty()) s += ", ";
    s += nl.net(vars.net_of(v)).name + "=" + (val ? "1" : "0");
  }
  return s.empty() ? "any assignment" : s;
}

// -------------------------------------------------------------- dead_logic
class DeadLogicPass final : public LintPass {
 public:
  [[nodiscard]] std::string_view name() const override { return "dead_logic"; }

  void run(LintContext& ctx, std::vector<Finding>& out, std::string& note) override {
    const Netlist& nl = ctx.nl();

    // Structural liveness: a net is live when a primary output or a
    // register consumes it (directly or through combinational logic).
    std::vector<bool> net_live(nl.num_nets(), false);
    std::vector<NetId> work;
    auto mark = [&](NetId n) {
      if (!net_live[n.value()]) {
        net_live[n.value()] = true;
        work.push_back(n);
      }
    };
    for (CellId id : nl.cell_ids()) {
      const Cell& c = nl.cell(id);
      if (c.kind == CellKind::PrimaryOutput || c.kind == CellKind::Reg) {
        for (NetId in : c.ins) mark(in);
      }
    }
    while (!work.empty()) {
      const NetId n = work.back();
      work.pop_back();
      for (NetId in : nl.cell(nl.net(n).driver).ins) mark(in);
    }

    for (CellId id : nl.cell_ids()) {
      const Cell& c = nl.cell(id);
      if (c.kind == CellKind::PrimaryInput || c.kind == CellKind::Constant ||
          c.kind == CellKind::PrimaryOutput || c.kind == CellKind::Reg) {
        continue;
      }
      if (!c.out.valid() || net_live[c.out.value()]) continue;
      Finding f;
      f.code = ErrCode::LintDeadLogic;
      f.severity = Severity::Warning;
      f.message = std::string(cell_kind_name(c.kind)) + " '" + c.name +
                  "' is unreachable from every register and primary output";
      f.cells.push_back(c.name);
      f.nets.push_back(nl.net(c.out).name);
      f.source_line = ctx.cell_line(id);
      out.push_back(std::move(f));
    }

    // Semantic refinement for the expensive cells: an arithmetic module
    // can be structurally connected yet never observed — its Sec.-3
    // observability function is constant 0 (e.g. a mux select tied so
    // the module's leg is never chosen).
    const ActivationAnalysis& act = ctx.activation();
    BddManager mgr(ctx.options().bdd);
    NetGrounder grounder = control_grounder(ctx, mgr);
    for (CellId id : nl.cell_ids()) {
      const Cell& c = nl.cell(id);
      if (!cell_kind_is_arith(c.kind) || !c.out.valid() || !net_live[c.out.value()]) continue;
      const ExprRef obs = act.obs[c.out.value()];
      bool dead = ctx.pool().is_const0(obs);
      if (!dead && !ctx.pool().is_const1(obs)) {
        try {
          dead = mgr.is_zero(ground_expr(ctx, mgr, grounder, obs));
        } catch (const ResourceError& e) {
          note = std::string("observability refinement degraded: ") + e.what();
          continue;
        }
      }
      if (!dead) continue;
      Finding f;
      f.code = ErrCode::LintDeadLogic;
      f.severity = Severity::Warning;
      f.message = std::string(cell_kind_name(c.kind)) + " '" + c.name +
                  "' is connected but never observed (observability is constant 0)";
      f.cells.push_back(c.name);
      f.nets.push_back(nl.net(c.out).name);
      f.source_line = ctx.cell_line(id);
      out.push_back(std::move(f));
    }
  }
};

// ---------------------------------------------------- isolation_soundness
class IsolationSoundnessPass final : public LintPass {
 public:
  [[nodiscard]] std::string_view name() const override { return "isolation_soundness"; }

  void run(LintContext& ctx, std::vector<Finding>& out, std::string& note) override {
    (void)note;
    const Netlist& nl = ctx.nl();

    // One proof obligation per (guarded module, AS net): every bank cell
    // of one isolation transform shares both, so the per-pin cells
    // collapse to a single check.
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<CellId>> groups;
    for (CellId id : nl.cell_ids()) {
      const Cell& c = nl.cell(id);
      if (!cell_kind_is_isolation(c.kind)) continue;
      for (const Pin& pin : nl.net(c.out).fanouts) {
        groups[{pin.cell.value(), c.ins[1].value()}].push_back(id);
      }
    }
    if (groups.empty()) return;

    const ActivationAnalysis& act = ctx.activation();
    BddManager mgr(ctx.options().bdd);
    NetGrounder grounder = control_grounder(ctx, mgr);

    for (const auto& [key, banks] : groups) {
      const CellId consumer{key.first};
      const NetId as_net{key.second};
      const Cell& cons = nl.cell(consumer);
      // The invariant guards the *module output*: when AS = 0 the
      // consumer's result must be unobservable this cycle, otherwise the
      // bank is forcing wrong operand values into live logic.
      const NetId guarded = cons.out.valid() ? cons.out : nl.cell(banks.front()).out;
      const ExprRef obs = act.obs[guarded.value()];

      auto finding = [&](ErrCode code, Severity severity, std::string message) {
        Finding f;
        f.code = code;
        f.severity = severity;
        f.message = std::move(message);
        f.cells.push_back(cons.name);
        for (CellId b : banks) f.cells.push_back(nl.cell(b).name);
        f.nets.push_back(nl.net(as_net).name);
        f.source_line = ctx.cell_line(consumer);
        out.push_back(std::move(f));
      };

      try {
        const BddRef obs_bdd = ground_expr(ctx, mgr, grounder, obs);
        const BddRef as_bdd = grounder.of_net(as_net);
        if (mgr.implies(obs_bdd, as_bdd)) continue;
        const BddRef violation = mgr.band(obs_bdd, mgr.bnot(as_bdd));
        finding(ErrCode::LintIsolationUnsound, Severity::Error,
                "isolation of '" + cons.name + "' via AS '" + nl.net(as_net).name +
                    "' is unsound: the output is observable while AS = 0 (e.g. " +
                    render_counterexample(mgr, ctx.vars(), nl, violation) + ")");
      } catch (const ResourceError& e) {
        finding(ErrCode::LintIsolationUnproven, Severity::Warning,
                "soundness of isolating '" + cons.name + "' via AS '" + nl.net(as_net).name +
                    "' is unproven: " + e.what());
      }
    }
  }
};

// ----------------------------------------------------- isolation_overhead
class IsolationOverheadPass final : public LintPass {
 public:
  [[nodiscard]] std::string_view name() const override { return "isolation_overhead"; }

  void run(LintContext& ctx, std::vector<Finding>& out, std::string& note) override {
    (void)note;
    const Netlist& nl = ctx.nl();
    std::vector<CellId> iso_cells;
    for (CellId id : nl.cell_ids()) {
      if (cell_kind_is_isolation(nl.cell(id).kind)) iso_cells.push_back(id);
    }
    if (iso_cells.empty()) return;

    const TimingReport& timing = ctx.sta();

    // Gate depth of every net (levels of combinational cells from the
    // nearest sequential/stimulus source) — how deep the synthesized AS
    // logic sits in front of the bank it drives.
    std::vector<unsigned> depth(nl.num_nets(), 0);
    for (CellId id : topological_order(nl)) {
      const Cell& c = nl.cell(id);
      if (!c.out.valid()) continue;
      if (c.kind == CellKind::PrimaryInput || c.kind == CellKind::Constant ||
          c.kind == CellKind::Reg) {
        continue;
      }
      unsigned d = 0;
      for (NetId in : c.ins) d = std::max(d, depth[in.value()]);
      depth[c.out.value()] = d + 1;
    }

    const double threshold = ctx.options().overhead_slack_threshold_ns;
    for (CellId id : iso_cells) {
      const Cell& c = nl.cell(id);
      const double slack = timing.net_slack(c.out);
      if (slack >= threshold) continue;
      Finding f;
      f.code = ErrCode::LintIsolationOverhead;
      f.severity = Severity::Warning;
      f.message = "isolation bank '" + c.name + "' output slack " + std::to_string(slack) +
                  " ns is below " + std::to_string(threshold) + " ns; its AS net '" +
                  nl.net(c.ins[1]).name + "' sits " + std::to_string(depth[c.ins[1].value()]) +
                  " gate levels deep";
      f.cells.push_back(c.name);
      f.nets.push_back(nl.net(c.ins[1]).name);
      f.source_line = ctx.cell_line(id);
      out.push_back(std::move(f));
    }
  }
};

}  // namespace

std::unique_ptr<LintPass> make_dead_logic_pass() { return std::make_unique<DeadLogicPass>(); }
std::unique_ptr<LintPass> make_isolation_soundness_pass() {
  return std::make_unique<IsolationSoundnessPass>();
}
std::unique_ptr<LintPass> make_isolation_overhead_pass() {
  return std::make_unique<IsolationOverheadPass>();
}

}  // namespace opiso::lint
