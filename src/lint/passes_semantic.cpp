// Semantic passes: dead logic, isolation soundness, isolation overhead.
// These require an acyclic design (they consume the Sec.-3 observability
// derivation and STA); the framework skips them, with a note, when the
// comb_loop pass has findings.

#include <algorithm>
#include <array>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>

#include "lint/passes.hpp"
#include "verify/equiv.hpp"

namespace opiso::lint {

namespace {

/// Grounds 1-bit nets (and observability expressions over them) to BDDs
/// over a common leaf set: primary inputs, register/latch outputs,
/// constants (folded) and any net driven by a cell the grounding cannot
/// expand (wide operands). Expanding through the 1-bit control logic is
/// what makes the soundness check meaningful — the synthesized AS logic
/// and the derived observability function must meet in the same
/// variable space, not each behind an opaque variable of its own.
class NetGrounder {
 public:
  NetGrounder(LintContext& ctx, BddManager& mgr) : ctx_(ctx), mgr_(mgr) {}

  BddRef of_net(NetId net) {
    const Netlist& nl = ctx_.nl();
    std::vector<std::uint32_t> stack{net.value()};
    while (!stack.empty()) {
      const std::uint32_t n = stack.back();
      if (net_memo_.count(n) != 0) {
        stack.pop_back();
        continue;
      }
      const NetId nid{n};
      const Cell& drv = nl.cell(nl.net(nid).driver);
      if (!expandable(nl, drv)) {
        net_memo_[n] = leaf(nid, drv);
        stack.pop_back();
        continue;
      }
      bool ready = true;
      for (NetId in : drv.ins) {
        if (net_memo_.count(in.value()) == 0) {
          stack.push_back(in.value());
          ready = false;
        }
      }
      if (!ready) continue;
      net_memo_[n] = combine(drv);
      stack.pop_back();
    }
    return net_memo_.at(net.value());
  }

  /// Ground an observability expression: Var v → of_net(net carrying v).
  BddRef of_expr(ExprRef e) {
    const ExprPool& pool = ctx_.pool();
    std::vector<ExprRef> stack{e};
    while (!stack.empty()) {
      const ExprRef r = stack.back();
      if (expr_memo_.count(r.value()) != 0) {
        stack.pop_back();
        continue;
      }
      const ExprNode& node = pool.node(r);
      switch (node.op) {
        case ExprOp::Const0: expr_memo_[r.value()] = mgr_.zero(); break;
        case ExprOp::Const1: expr_memo_[r.value()] = mgr_.one(); break;
        case ExprOp::Var:
          expr_memo_[r.value()] = of_net(ctx_.vars().net_of(node.var));
          break;
        case ExprOp::Not: {
          auto it = expr_memo_.find(node.a.value());
          if (it == expr_memo_.end()) {
            stack.push_back(node.a);
            continue;
          }
          expr_memo_[r.value()] = mgr_.bnot(it->second);
          break;
        }
        case ExprOp::And:
        case ExprOp::Or: {
          auto ia = expr_memo_.find(node.a.value());
          auto ib = expr_memo_.find(node.b.value());
          if (ia == expr_memo_.end() || ib == expr_memo_.end()) {
            if (ia == expr_memo_.end()) stack.push_back(node.a);
            if (ib == expr_memo_.end()) stack.push_back(node.b);
            continue;
          }
          expr_memo_[r.value()] = node.op == ExprOp::And ? mgr_.band(ia->second, ib->second)
                                                         : mgr_.bor(ia->second, ib->second);
          break;
        }
      }
      stack.pop_back();
    }
    return expr_memo_.at(e.value());
  }

  BddManager& mgr() { return mgr_; }

 private:
  static bool one_bit_ins(const Netlist& nl, const Cell& c) {
    return std::all_of(c.ins.begin(), c.ins.end(),
                       [&](NetId in) { return nl.net(in).width == 1; });
  }

  static bool expandable(const Netlist& nl, const Cell& c) {
    if (!c.out.valid() || nl.net(c.out).width != 1 || !one_bit_ins(nl, c)) return false;
    // PI / Reg / Latch / IsoLatch carry state or stimulus and constants
    // are leaves; multipliers and shifts stay opaque.
    return cell_kind_is_operator(c.kind) && c.kind != CellKind::Mul &&
           c.kind != CellKind::Shl && c.kind != CellKind::Shr;
  }

  BddRef leaf(NetId net, const Cell& drv) {
    if (drv.kind == CellKind::Constant) {
      return (drv.param & 1u) != 0 ? mgr_.one() : mgr_.zero();
    }
    return mgr_.var(ctx_.vars().var_of(ctx_.nl(), net));
  }

  BddRef combine(const Cell& c) {
    std::array<BddRef, 3> ins;
    for (std::size_t i = 0; i < c.ins.size(); ++i) ins[i] = net_memo_.at(c.ins[i].value());
    return one_bit_cell_bdd(mgr_, c.kind, std::span<const BddRef>(ins.data(), c.ins.size()));
  }

  LintContext& ctx_;
  BddManager& mgr_;
  std::unordered_map<std::uint32_t, BddRef> net_memo_;
  std::unordered_map<std::uint32_t, BddRef> expr_memo_;
};

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
    NetGrounder grounder(ctx, mgr);
    for (CellId id : nl.cell_ids()) {
      const Cell& c = nl.cell(id);
      if (!cell_kind_is_arith(c.kind) || !c.out.valid() || !net_live[c.out.value()]) continue;
      const ExprRef obs = act.obs[c.out.value()];
      bool dead = ctx.pool().is_const0(obs);
      if (!dead && !ctx.pool().is_const1(obs)) {
        try {
          dead = mgr.is_zero(grounder.of_expr(obs));
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
    NetGrounder grounder(ctx, mgr);

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
        const BddRef obs_bdd = grounder.of_expr(obs);
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
