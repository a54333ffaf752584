#include "opt/rewrite_rules.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "netlist/traversal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "opt/egraph.hpp"
#include "power/area_model.hpp"
#include "power/estimator.hpp"
#include "sim/parallel_sim.hpp"
#include "sim/stimulus.hpp"
#include "util/error.hpp"
#include "verify/equiv.hpp"

namespace opiso {
namespace {

bool is_state_kind(CellKind kind) { return kind == CellKind::Reg || cell_kind_is_latch(kind); }

/// Sequential/boundary cells whose outputs the rewriter treats as
/// opaque leaves: the e-graph never looks through state.
bool is_leaf_kind(CellKind kind) { return kind == CellKind::PrimaryInput || is_state_kind(kind); }

// ---------------------------------------------------------------------
// Netlist -> e-graph
// ---------------------------------------------------------------------

struct GraphBuild {
  EGraph g;
  std::vector<EClassId> class_of_net;  ///< old net -> class (where has_class)
  std::vector<char> has_class;
  std::vector<std::string> hint;       ///< class id (at allocation) -> net name
};

GraphBuild build_egraph(const Netlist& nl) {
  GraphBuild b;
  b.class_of_net.assign(nl.num_nets(), 0);
  b.has_class.assign(nl.num_nets(), 0);
  for (CellId id : topological_order(nl)) {
    const Cell& c = nl.cell(id);
    if (c.kind == CellKind::PrimaryOutput) continue;
    ENode n;
    n.width = c.width;
    if (is_leaf_kind(c.kind)) {
      n.kind = c.kind;
      n.param = c.out.value();
    } else if (c.kind == CellKind::Constant) {
      n.kind = CellKind::Constant;
      n.param = c.param & width_mask(c.width);
    } else {
      n.kind = c.kind;
      n.param = (c.kind == CellKind::Shl || c.kind == CellKind::Shr) ? c.param : 0;
      n.children.reserve(c.ins.size());
      for (NetId in : c.ins) {
        OPISO_REQUIRE(b.has_class[in.value()], "rewrite: input net without e-class");
        n.children.push_back(b.class_of_net[in.value()]);
      }
    }
    const EClassId cls = b.g.add(std::move(n));
    b.class_of_net[c.out.value()] = cls;
    b.has_class[c.out.value()] = 1;
    if (cls >= b.hint.size()) b.hint.resize(cls + 1);
    if (b.hint[cls].empty()) b.hint[cls] = nl.net(c.out).name;
  }
  return b;
}

// ---------------------------------------------------------------------
// Rule set (width-sound by construction; see each rule's guard)
// ---------------------------------------------------------------------

bool is_commutative(CellKind k) {
  switch (k) {
    case CellKind::Add:
    case CellKind::Mul:
    case CellKind::And:
    case CellKind::Or:
    case CellKind::Xor:
    case CellKind::Nand:
    case CellKind::Nor:
    case CellKind::Xnor:
    case CellKind::Eq:
      return true;
    default:
      return false;
  }
}

bool is_associative(CellKind k) {
  // Sub is not associative; Add needs the width guard applied at the
  // match site (intermediate truncation must agree on both groupings).
  switch (k) {
    case CellKind::Add:
    case CellKind::Mul:
    case CellKind::And:
    case CellKind::Or:
    case CellKind::Xor:
      return true;
    default:
      return false;
  }
}

/// Operators muxes may be hoisted through. Add/Sub additionally need
/// the no-differential-truncation width guards checked at the site.
bool is_mux_hoistable(CellKind k) {
  switch (k) {
    case CellKind::Add:
    case CellKind::Sub:
    case CellKind::Mul:
    case CellKind::And:
    case CellKind::Or:
    case CellKind::Xor:
      return true;
    default:
      return false;
  }
}

struct Saturator {
  EGraph& g;
  std::size_t max_nodes;  ///< e-node cap; a round stops adding once past it
  bool algebra;           ///< false: only the const-fold and identity rules
  std::map<std::string, std::uint64_t>& fired;
  std::uint64_t merges_done = 0;

  EClassId mk(CellKind kind, std::uint64_t param, std::vector<EClassId> children) {
    std::vector<unsigned> ws;
    ws.reserve(children.size());
    for (EClassId c : children) ws.push_back(g.width(c));
    ENode n;
    n.kind = kind;
    n.param = param;
    n.width = cell_kind_width(kind, ws);
    n.children = std::move(children);
    return g.add(std::move(n));
  }

  EClassId mk_const(std::uint64_t value, unsigned width) {
    ENode n;
    n.kind = CellKind::Constant;
    n.param = value & width_mask(width);
    n.width = width;
    return g.add(std::move(n));
  }

  /// Merge with the global width safety net: a rule whose conclusion
  /// lands at a different width than the matched class is silently a
  /// no-op (it would change the value lattice), never an error.
  void unite(EClassId cls, EClassId other, const char* rule) {
    if (g.width(cls) != g.width(other)) return;
    if (g.merge(cls, other)) {
      ++merges_done;
      ++fired[rule];
    }
  }

  /// One saturation round over a snapshot of the graph. Returns true if
  /// the graph changed (merge happened or a genuinely new node stuck).
  bool round() {
    struct Item {
      EClassId cls;
      ENode node;
    };
    std::vector<Item> items;
    for (EClassId c : g.class_ids()) {
      for (const ENode& n : g.nodes(c)) items.push_back(Item{c, n});
    }
    const std::uint64_t merges0 = merges_done;
    const std::size_t nodes0 = g.num_nodes();
    for (const Item& it : items) {
      if (g.num_nodes() > max_nodes) break;
      apply_rules(it.cls, it.node);
    }
    g.rebuild();
    return merges_done != merges0 || g.num_nodes() != nodes0;
  }

  void apply_rules(EClassId cls, const ENode& n) {
    if (!cell_kind_is_operator(n.kind)) return;
    const unsigned W = n.width;
    const auto ch = [&](std::size_t i) { return g.find(n.children[i]); };
    const auto cw = [&](std::size_t i) { return g.width(n.children[i]); };
    const auto cv = [&](std::size_t i) { return g.const_value(n.children[i]); };

    // -- constant folding: all operands constant -> fold to a constant.
    {
      bool all_const = !n.children.empty();
      std::vector<std::uint64_t> vals;
      vals.reserve(n.children.size());
      for (std::size_t i = 0; i < n.children.size(); ++i) {
        const auto v = cv(i);
        if (!v) {
          all_const = false;
          break;
        }
        vals.push_back(*v);
      }
      if (all_const) {
        unite(cls, mk_const(cell_kind_eval(n.kind, n.param, W, vals), W), "const-fold");
      }
    }

    // -- commutativity.
    if (algebra && is_commutative(n.kind) && n.children.size() == 2) {
      unite(cls, mk(n.kind, n.param, {ch(1), ch(0)}), "comm");
    }

    // -- associativity: (a K b) K y  =>  a K (b K y). The symmetric
    // grouping follows from commutativity in a later round. For Add the
    // regrouping is only sound when neither grouping truncates an
    // intermediate below W (counterexample otherwise: widths 1,1,8).
    if (algebra && is_associative(n.kind)) {
      const std::vector<ENode> lhs = g.nodes(ch(0));  // copy: adds may reallocate
      for (const ENode& m : lhs) {
        if (m.kind != n.kind) continue;
        const EClassId a = g.find(m.children[0]);
        const EClassId b = g.find(m.children[1]);
        if (n.kind == CellKind::Add) {
          const unsigned inner_w = std::max(g.width(b), g.width(ch(1)));
          if (cw(0) != W || inner_w != W) continue;
        }
        unite(cls, mk(n.kind, 0, {a, mk(n.kind, 0, {b, ch(1)})}), "assoc");
      }
    }

    switch (n.kind) {
      case CellKind::Add:
        if (cv(0) == std::uint64_t{0}) unite(cls, ch(1), "identity");
        if (cv(1) == std::uint64_t{0}) unite(cls, ch(0), "identity");
        break;
      case CellKind::Sub:
        if (cv(1) == std::uint64_t{0}) unite(cls, ch(0), "identity");
        if (ch(0) == ch(1)) unite(cls, mk_const(0, W), "identity");
        break;
      case CellKind::Mul:
        if (cv(0) == std::uint64_t{0} || cv(1) == std::uint64_t{0}) {
          unite(cls, mk_const(0, W), "identity");
        }
        if (algebra) {
          if (const auto c1 = cv(1)) mul_const_decompose(cls, W, ch(0), *c1);
          if (const auto c0 = cv(0)) mul_const_decompose(cls, W, ch(1), *c0);
        }
        break;
      case CellKind::And:
        if (cv(0) == std::uint64_t{0} || cv(1) == std::uint64_t{0}) {
          unite(cls, mk_const(0, W), "identity");
        }
        // All-ones identity: sound only when the constant spans the
        // full output word (a narrower ones-constant still masks).
        if (cv(0) == width_mask(cw(0)) && cw(0) == W) unite(cls, ch(1), "identity");
        if (cv(1) == width_mask(cw(1)) && cw(1) == W) unite(cls, ch(0), "identity");
        if (ch(0) == ch(1)) unite(cls, ch(0), "identity");
        break;
      case CellKind::Or:
        if (cv(0) == std::uint64_t{0}) unite(cls, ch(1), "identity");
        if (cv(1) == std::uint64_t{0}) unite(cls, ch(0), "identity");
        if (ch(0) == ch(1)) unite(cls, ch(0), "identity");
        if (((cv(0) == width_mask(cw(0))) || (cv(1) == width_mask(cw(1)))) && cw(0) == W &&
            cw(1) == W) {
          unite(cls, mk_const(width_mask(W), W), "identity");
        }
        break;
      case CellKind::Xor:
        if (cv(0) == std::uint64_t{0}) unite(cls, ch(1), "identity");
        if (cv(1) == std::uint64_t{0}) unite(cls, ch(0), "identity");
        if (ch(0) == ch(1)) unite(cls, mk_const(0, W), "identity");
        break;
      case CellKind::Eq:
        if (ch(0) == ch(1)) unite(cls, mk_const(1, 1), "identity");
        break;
      case CellKind::Lt:
        if (ch(0) == ch(1)) unite(cls, mk_const(0, 1), "identity");
        break;
      case CellKind::Shl:
      case CellKind::Shr:
        if (n.param == 0) unite(cls, ch(0), "identity");
        break;
      case CellKind::Buf:
        unite(cls, ch(0), "identity");
        break;
      case CellKind::Not: {
        const std::vector<ENode> inner = g.nodes(ch(0));
        for (const ENode& m : inner) {
          if (m.kind == CellKind::Not) unite(cls, g.find(m.children[0]), "identity");
        }
        break;
      }
      case CellKind::Mux2: {
        if (const auto sel = cv(0)) unite(cls, (*sel & 1) ? ch(2) : ch(1), "identity");
        if (ch(1) == ch(2)) unite(cls, ch(1), "identity");
        if (algebra) mux_factor(cls, W, ch(0), ch(1), ch(2));
        break;
      }
      case CellKind::IsoAnd:
        if (const auto as = cv(1)) {
          if ((*as & 1) == 1) unite(cls, ch(0), "identity");
          else unite(cls, mk_const(0, W), "identity");
        }
        break;
      case CellKind::IsoOr:
        if (const auto as = cv(1)) {
          if ((*as & 1) == 1) unite(cls, ch(0), "identity");
          else unite(cls, mk_const(width_mask(W), W), "identity");
        }
        break;
      default:
        break;
    }

    // -- mux distribution: K(mux(s,a,b), y) => mux(s, K(a,y), K(b,y)),
    // both operand sides. The inverse (factoring) is matched on Mux2
    // nodes above.
    if (algebra && is_mux_hoistable(n.kind) && n.children.size() == 2) {
      mux_distribute(cls, n.kind, W, ch(0), ch(1), /*mux_on_left=*/true);
      mux_distribute(cls, n.kind, W, ch(1), ch(0), /*mux_on_left=*/false);
    }
  }

  /// mux(s, K(a,c), K(b,c)) => K(mux(s,a,b), c) — hoist the shared
  /// operator out of the mux legs (shared operand on either side).
  /// For Add/Sub both legs must already be W wide, otherwise the
  /// narrow leg's truncation has no counterpart after hoisting.
  void mux_factor(EClassId cls, unsigned W, EClassId s, EClassId leg_a, EClassId leg_b) {
    const std::vector<ENode> an = g.nodes(leg_a);
    const std::vector<ENode> bn = g.nodes(leg_b);
    for (const ENode& p : an) {
      if (!is_mux_hoistable(p.kind)) continue;
      for (const ENode& q : bn) {
        if (q.kind != p.kind) continue;
        if ((p.kind == CellKind::Add || p.kind == CellKind::Sub) &&
            (g.width(leg_a) != W || g.width(leg_b) != W)) {
          continue;
        }
        const EClassId pa = g.find(p.children[0]);
        const EClassId pb = g.find(p.children[1]);
        const EClassId qa = g.find(q.children[0]);
        const EClassId qb = g.find(q.children[1]);
        if (pb == qb && g.width(pa) == g.width(qa)) {
          unite(cls, mk(p.kind, 0, {mk(CellKind::Mux2, 0, {s, pa, qa}), pb}), "mux-factor");
        }
        if (pa == qa && g.width(pb) == g.width(qb)) {
          unite(cls, mk(p.kind, 0, {pa, mk(CellKind::Mux2, 0, {s, pb, qb})}), "mux-factor");
        }
      }
    }
  }

  /// K(mux(s,a,b), y) => mux(s, K(a,y), K(b,y)) (and mirrored when the
  /// mux is the right operand). For Add/Sub every leg must compute at
  /// the full width W so no leg truncates where the original did not.
  void mux_distribute(EClassId cls, CellKind k, unsigned W, EClassId mux_side, EClassId other,
                      bool mux_on_left) {
    const std::vector<ENode> muxes = g.nodes(mux_side);
    for (const ENode& m : muxes) {
      if (m.kind != CellKind::Mux2) continue;
      const EClassId s = g.find(m.children[0]);
      const EClassId a = g.find(m.children[1]);
      const EClassId b = g.find(m.children[2]);
      if (k == CellKind::Add || k == CellKind::Sub) {
        const unsigned wo = g.width(other);
        if (std::max(g.width(a), wo) != W || std::max(g.width(b), wo) != W) continue;
      }
      const EClassId la = mux_on_left ? mk(k, 0, {a, other}) : mk(k, 0, {other, a});
      const EClassId lb = mux_on_left ? mk(k, 0, {b, other}) : mk(k, 0, {other, b});
      if (g.width(la) != g.width(lb)) continue;
      unite(cls, mk(CellKind::Mux2, 0, {s, la, lb}), "mux-distribute");
    }
  }

  /// x * C => sum/difference of shifts of zero-extended x. Exact at any
  /// width: the product width W admits the full shifted terms, and the
  /// mod-2^W arithmetic of Add/Sub/Shl matches Mul's own truncation.
  /// Handles C = 2^k, 2^k + 2^j and 2^k - 2^j (covers 3, 5, 6, 7, 10,
  /// 12, 14, ... — the common filter coefficients).
  void mul_const_decompose(EClassId cls, unsigned W, EClassId x, std::uint64_t c) {
    if (c == 0) return;  // annihilator rule handles it
    const auto zext = [&](EClassId v) {
      // No explicit zext cell exists; Or with a W-wide zero constant is
      // the width-adapter idiom (value-identical, W wide).
      if (g.width(v) == W) return v;
      return mk(CellKind::Or, 0, {v, mk_const(0, W)});
    };
    const auto term = [&](unsigned k) {
      return k == 0 ? zext(x) : mk(CellKind::Shl, k, {zext(x)});
    };
    const auto floor_log2 = [](std::uint64_t v) {
      unsigned k = 0;
      while (v >>= 1) ++k;
      return k;
    };
    const bool pow2 = (c & (c - 1)) == 0;
    if (c == 1) {
      unite(cls, zext(x), "mul-shift-add");
    } else if (pow2) {
      unite(cls, term(floor_log2(c)), "mul-shift-add");
    } else if (__builtin_popcountll(c) == 2) {
      const unsigned k = floor_log2(c);
      const unsigned j = static_cast<unsigned>(__builtin_ctzll(c));
      unite(cls, mk(CellKind::Add, 0, {term(k), term(j)}), "mul-shift-add");
    } else {
      const unsigned j = static_cast<unsigned>(__builtin_ctzll(c));
      const std::uint64_t up = c + (std::uint64_t{1} << j);
      if (up != 0 && (up & (up - 1)) == 0) {
        unite(cls, mk(CellKind::Sub, 0, {term(floor_log2(up)), term(j)}), "mul-shift-add");
      }
    }
  }
};

// ---------------------------------------------------------------------
// Profiling + isolation-aware extraction
// ---------------------------------------------------------------------

constexpr unsigned kMaxIterations = 8;            ///< saturation rounds
constexpr std::uint64_t kProfileSeed = 0x5EED0001;  ///< profiling stimulus seed
constexpr std::uint64_t kProfileWarmup = 32;      ///< reset-transient flush
constexpr std::uint64_t kProfileCycles = 256;     ///< measured profiling cycles

/// Slots for per-class vectors: one past the largest canonical id.
std::size_t class_slots(const std::vector<EClassId>& ids) {
  return ids.empty() ? 0 : std::size_t{ids.back()} + 1;
}

/// What the profiling run measured, per canonical e-class.
struct Profile {
  ActivityStats stats;           ///< the whole run; the input's nets keep their ids
  std::vector<NetId> class_net;  ///< per class: the net that carries its value
  std::vector<double> rate;      ///< per class: toggles per cycle between measured cycles
  double pr_idle = 0.0;          ///< width-weighted mean Pr(reg EN == 0)
};

/// Measures every e-class of the saturated graph in one plane-engine
/// run. A class with no net in the input gets one dangling cell,
/// appended to a copy of the input on one of its nodes whose children
/// already have nets, so the design's own behaviour is unchanged. The
/// run is one lane on the fixed profiling stream, always, so the report
/// section is bitwise identical whatever lane or thread count the
/// surrounding flow measures with.
Profile profile_classes(const Netlist& nl, const GraphBuild& b) {
  const EGraph& g = b.g;
  const std::vector<EClassId> ids = g.class_ids();
  Profile p;
  p.class_net.assign(class_slots(ids), NetId::invalid());
  for (NetId net : nl.net_ids()) {
    if (!b.has_class[net.value()]) continue;
    NetId& slot = p.class_net[g.find(b.class_of_net[net.value()])];
    if (!slot.valid()) slot = net;
  }
  Netlist ext = nl;
  bool progress = true;
  while (progress) {
    progress = false;
    for (EClassId c : ids) {
      if (p.class_net[c].valid()) continue;
      for (const ENode& n : g.nodes(c)) {
        std::vector<NetId> ins;
        for (EClassId chc : n.children) {
          const NetId in = p.class_net[g.find(chc)];
          if (!in.valid()) break;
          ins.push_back(in);
        }
        if (ins.size() != n.children.size()) continue;
        const std::string base = "~ec" + std::to_string(c);
        p.class_net[c] = ext.add_net(ext.fresh_net_name(base), n.width);
        ext.add_cell(n.kind, ext.fresh_cell_name(base), ins, p.class_net[c], n.param);
        progress = true;
        break;
      }
    }
  }

  // pr_idle reads Var probes on the register enables; probes go in
  // before the first simulated cycle.
  ExprPool pool;
  NetVarMap vars;
  ParallelSimulator sim(ext, 1, &pool, &vars);
  std::vector<std::pair<unsigned, std::size_t>> enables;  // (register width, probe)
  for (CellId id : nl.cell_ids()) {
    const Cell& c = nl.cell(id);
    if (c.kind != CellKind::Reg) continue;
    enables.emplace_back(c.width, sim.add_probe(pool.var(vars.var_of(ext, c.ins[1]))));
  }
  sim.set_stimulus([](unsigned) { return std::make_unique<UniformStimulus>(kProfileSeed); });
  sim.warmup(kProfileWarmup);
  // The rates count the transitions between measured cycles; the
  // engine also counts the step into the first one, so subtract it.
  sim.run(1);
  const std::vector<std::uint64_t> first = sim.stats().toggles;
  sim.run(kProfileCycles - 1);
  p.stats = sim.stats();

  p.rate.assign(p.class_net.size(), 0.0);
  for (EClassId c : ids) {
    OPISO_REQUIRE(p.class_net[c].valid(), "rewrite: e-class " + std::to_string(c) + " has no net");
    const std::size_t net = p.class_net[c].value();
    p.rate[c] = static_cast<double>(p.stats.toggles[net] - first[net]) /
                static_cast<double>(kProfileCycles - 1);
  }
  double wsum = 0.0, isum = 0.0;
  for (const auto& [width, probe] : enables) {
    wsum += width;
    isum += width * (1.0 - p.stats.probe_probability(probe));
  }
  p.pr_idle = wsum > 0.0 ? isum / wsum : 0.0;
  return p;
}

/// Per-node extraction cost implementing the paper's ranking
/// h(c) = ωp·rP − ωa·rA: normalized macro power at the profiled toggle
/// rates — discounted by the measured register idle probability for
/// isolatable arithmetic, since that fraction is what operand isolation
/// downstream can recover — plus the ωa-weighted cell area. Leaves and
/// constants are free.
struct CostModel {
  MacroPowerModel power;
  AreaModel area;
  double p0 = 1.0;  ///< normalizer: estimated input-netlist power
  double a0 = 1.0;  ///< normalizer: input-netlist area
  double pr_idle = 0.0;
  double omega_p = 1.0;
  double omega_a = 0.2;
  unsigned iso_min_width = 2;

  double node_cost(const EGraph& g, const ENode& n, const std::vector<double>& rate) const {
    if (!cell_kind_is_operator(n.kind)) return 0.0;
    std::vector<double> rates;
    rates.reserve(n.children.size());
    for (EClassId c : n.children) rates.push_back(rate[g.find(c)]);
    double pw = power.module_power_mw(n.kind, n.width, rates);
    if (cell_kind_is_arith(n.kind) && n.width >= iso_min_width) pw *= (1.0 - pr_idle);
    const double aw = area.cell_area_um2(n.kind, n.width);
    return omega_p * (pw / p0) + omega_a * (aw / a0);
  }
};

/// Cost of one e-node on its own; its children's classes add theirs.
using NodeCost = std::function<double(const ENode&)>;

/// Per class: the node of least DAG-node cost sum, or none.
using Extraction = std::vector<std::optional<ENode>>;

/// Min-cost representative per class by fixpoint. Classes are visited
/// in canonical-id order with strict-improvement updates, so the choice
/// is bitwise deterministic, and with non-negative node costs the
/// chosen nodes never form a cycle.
Extraction extract(const EGraph& g, const NodeCost& node_cost) {
  const std::vector<EClassId> ids = g.class_ids();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> cost(class_slots(ids), kInf);
  Extraction choice(cost.size());
  bool progress = true;
  while (progress) {
    progress = false;
    for (EClassId c : ids) {
      for (const ENode& n : g.nodes(c)) {
        double total = node_cost(n);
        bool ok = true;
        for (EClassId chc : n.children) {
          const double cc = cost[g.find(chc)];
          if (!(cc < kInf)) {
            ok = false;
            break;
          }
          total += cc;
        }
        if (ok && total < cost[c] - 1e-12) {
          cost[c] = total;
          choice[c] = n;
          progress = true;
        }
      }
    }
  }
  return choice;
}

// ---------------------------------------------------------------------
// Emission: extracted e-graph -> netlist
// ---------------------------------------------------------------------

/// The emitter preserves exactly what verify::equiv matches by name or
/// position: primary-input names, register/latch output-net names and
/// widths, register/latch and primary-output cell names, and
/// primary-output order. All interior nets are fresh, and only the
/// registers and latches the output cones read are emitted.
struct Emitter {
  const Netlist& old;
  const GraphBuild& b;
  const Extraction& ex;
  const NodeCost& cost;
  Netlist out;
  std::map<EClassId, NetId> done;  ///< canonical class -> emitted net
  double emitted_cost = 0.0;       ///< Σ node cost over emitted cells (DAG)

  Emitter(const Netlist& nl, const GraphBuild& build, const Extraction& extraction,
          const NodeCost& node_cost)
      : old(nl), b(build), ex(extraction), cost(node_cost), out(nl.name()) {}

  std::string hint_name(EClassId c) const {
    if (c < b.hint.size() && !b.hint[c].empty()) return b.hint[c];
    return "rw";
  }

  NetId emit(EClassId c0) {
    const EClassId c = b.g.find(c0);
    const auto it = done.find(c);
    if (it != done.end()) return it->second;
    OPISO_REQUIRE(ex[c].has_value(), "rewrite: extraction left class " + std::to_string(c) +
                                         " without a representative");
    const ENode& n = *ex[c];
    NetId net;
    if (n.kind == CellKind::Constant) {
      net = out.add_const(out.fresh_net_name(hint_name(c)), n.param, n.width);
    } else {
      OPISO_REQUIRE(cell_kind_is_operator(n.kind), "rewrite: leaf class was not pre-seeded");
      std::vector<NetId> ins;
      ins.reserve(n.children.size());
      for (EClassId chc : n.children) ins.push_back(emit(chc));
      net = out.add_net(out.fresh_net_name(hint_name(c)), n.width);
      out.add_cell(n.kind, out.fresh_cell_name(hint_name(c)), ins, net, n.param);
      emitted_cost += cost(n);
    }
    done.emplace(c, net);
    return net;
  }

  /// Per old cell: set for the registers and latches to emit, the ones
  /// the chosen nodes reach from the primary outputs, walking on through
  /// each reached cell's D and EN.
  std::vector<char> live_state() const {
    std::vector<char> live(old.num_cells(), 0);
    std::vector<char> seen(ex.size(), 0);
    std::vector<EClassId> work;
    for (CellId po : old.primary_outputs()) {
      work.push_back(b.class_of_net[old.cell(po).ins[0].value()]);
    }
    while (!work.empty()) {
      const EClassId c = b.g.find(work.back());
      work.pop_back();
      if (seen[c] || !ex[c]) continue;
      seen[c] = 1;
      const ENode& n = *ex[c];
      work.insert(work.end(), n.children.begin(), n.children.end());
      if (!is_state_kind(n.kind)) continue;
      const CellId s = old.net(NetId{static_cast<std::uint32_t>(n.param)}).driver;
      live[s.value()] = 1;
      for (NetId in : old.cell(s).ins) work.push_back(b.class_of_net[in.value()]);
    }
    return live;
  }

  Netlist run() {
    const std::vector<char> live = live_state();
    // Boundary first: PIs keep their names; state output nets keep
    // their exact original names (verify::equiv matches registers by
    // lowered Q-bit-net name).
    for (CellId id : old.cell_ids()) {
      const Cell& c = old.cell(id);
      if (c.kind == CellKind::PrimaryInput) {
        const NetId pi = out.add_input(old.net(c.out).name, c.width);
        done.emplace(b.g.find(b.class_of_net[c.out.value()]), pi);
      } else if (is_state_kind(c.kind) && live[id.value()]) {
        const NetId q = out.add_net(old.net(c.out).name, c.width);
        done.emplace(b.g.find(b.class_of_net[c.out.value()]), q);
      }
    }
    // Cones: state D/EN first, then POs; state cells go in last (the
    // simulator's topological order seeds all sources ahead of
    // combinational logic regardless of creation order).
    struct StatePatch {
      CellKind kind;
      std::string name;
      NetId d, en, q;
    };
    std::vector<StatePatch> patches;
    for (CellId id : old.cell_ids()) {
      const Cell& c = old.cell(id);
      if (!is_state_kind(c.kind) || !live[id.value()]) continue;
      StatePatch p;
      p.kind = c.kind;
      p.name = c.name;
      p.d = emit(b.class_of_net[c.ins[0].value()]);
      p.en = emit(b.class_of_net[c.ins[1].value()]);
      p.q = done.at(b.g.find(b.class_of_net[c.out.value()]));
      patches.push_back(std::move(p));
    }
    std::vector<std::pair<std::string, NetId>> pos;
    for (CellId id : old.cell_ids()) {
      const Cell& c = old.cell(id);
      if (c.kind != CellKind::PrimaryOutput) continue;
      pos.emplace_back(c.name, emit(b.class_of_net[c.ins[0].value()]));
    }
    for (const StatePatch& p : patches) {
      out.add_cell(p.kind, p.name, {p.d, p.en}, p.q);
    }
    for (const auto& [name, net] : pos) {
      out.add_cell(CellKind::PrimaryOutput, name, {net}, NetId::invalid());
    }
    out.validate();
    return std::move(out);
  }
};

}  // namespace

RewriteResult rewrite_datapath(const Netlist& nl, const RewriteOptions& opt) {
  nl.validate();
  obs::metrics().counter("rewrite.runs").add(1);
  RewriteResult res;
  res.netlist = nl;
  res.cells_before = nl.num_cells();
  res.cells_after = nl.num_cells();
  if (has_latches(nl)) {
    res.fallback_reason = "latch-bearing design: verify::equiv has no latch semantics";
    obs::metrics().counter("rewrite.fallbacks").add(1);
    return res;
  }
  if (nl.primary_inputs().empty()) {
    res.fallback_reason = "design has no primary inputs to profile";
    obs::metrics().counter("rewrite.fallbacks").add(1);
    return res;
  }

  try {
    // 1. Saturate.
    obs::Span saturate_span("rewrite.saturate");
    GraphBuild b = build_egraph(nl);
    Saturator sat{b.g, opt.max_nodes, /*algebra=*/true, res.rules_fired};
    for (unsigned it = 0; it < kMaxIterations; ++it) {
      if (b.g.num_nodes() > opt.max_nodes) break;
      ++res.iterations;
      if (!sat.round()) {
        res.saturated = true;
        break;
      }
    }
    saturate_span.end();
    res.egraph_classes = b.g.num_classes();
    res.egraph_nodes = b.g.num_nodes();
    if (b.g.num_nodes() > opt.max_nodes) {
      res.budget_exhausted = true;
      res.fallback_reason = "e-node budget exhausted (" + std::to_string(b.g.num_nodes()) +
                            " > " + std::to_string(opt.max_nodes) + ")";
      obs::metrics().counter("rewrite.budget_fallbacks").add(1);
      return res;
    }

    // 2. Profile every e-class in one simulation, then extract with
    //    the isolation-aware cost model.
    const Profile prof = profile_classes(nl, b);
    res.profile_cycles = kProfileWarmup + kProfileCycles;
    obs::Span extract_span("rewrite.extract");
    CostModel cm;
    cm.pr_idle = prof.pr_idle;
    cm.omega_p = opt.omega_p;
    cm.omega_a = opt.omega_a;
    cm.iso_min_width = opt.iso_min_width;
    PowerEstimator estimator(cm.power);
    res.est_power_before_mw = estimator.estimate(nl, prof.stats).total_mw;
    cm.p0 = res.est_power_before_mw > 0.0 ? res.est_power_before_mw : 1.0;
    const double a0 = cm.area.total_area_um2(nl);
    cm.a0 = a0 > 0.0 ? a0 : 1.0;
    res.pr_idle = prof.pr_idle;
    const NodeCost cost = [&](const ENode& n) { return cm.node_cost(b.g, n, prof.rate); };
    const Extraction ex = extract(b.g, cost);

    // Cost of the input netlist under the identical model (same class
    // toggle rates), so the comparison is apples-to-apples.
    double cost_before = 0.0;
    for (CellId id : nl.cell_ids()) {
      const Cell& c = nl.cell(id);
      if (!cell_kind_is_operator(c.kind)) continue;
      ENode n;
      n.kind = c.kind;
      n.param = (c.kind == CellKind::Shl || c.kind == CellKind::Shr) ? c.param : 0;
      n.width = c.width;
      for (NetId in : c.ins) n.children.push_back(b.class_of_net[in.value()]);
      cost_before += cost(n);
    }
    res.cost_before = cost_before;

    // 3. Emit, price, verify.
    Emitter em(nl, b, ex, cost);
    Netlist rewritten = em.run();
    extract_span.end();
    res.cost_after = em.emitted_cost;
    // Honest power of the extraction, whatever becomes of it: every
    // emitted net carries one profiled class, so its toggles are the
    // ones the rewritten netlist shows on the same stimulus.
    ActivityStats after;
    after.cycles = prof.stats.cycles;
    after.toggles.assign(rewritten.num_nets(), 0);
    for (const auto& [c, net] : em.done) {
      after.toggles[net.value()] = prof.stats.toggles[prof.class_net[c].value()];
    }
    res.est_power_after_mw = estimator.estimate(rewritten, after).total_mw;
    if (!(res.cost_after < res.cost_before - 1e-12)) {
      res.fallback_reason = "extraction found no cheaper representative";
      obs::metrics().counter("rewrite.no_improvement").add(1);
      return res;
    }
    if (opt.verify) {
      BddBudget budget;
      budget.max_nodes = opt.bdd_node_budget;
      const EquivResult eq = check_isolation_equivalence(nl, rewritten, budget);
      res.verify_obligations = eq.obligations_checked;
      if (eq.budget_exhausted) {
        res.fallback_reason = "resource budget: " + eq.reason;
        res.verify_stopped_at = eq.stopped_at;
        obs::metrics().counter("rewrite.budget_fallbacks").add(1);
        return res;
      }
      if (!eq.equivalent) {
        res.fallback_reason = "verify::equiv rejected the extraction: " + eq.reason;
        obs::metrics().counter("rewrite.verify_rejections").add(1);
        return res;
      }
      res.verified = true;
    }
    res.cells_after = rewritten.num_cells();
    res.netlist = std::move(rewritten);
    res.rewritten = true;
    obs::metrics().counter("rewrite.applied").add(1);
  } catch (const Error& e) {
    // The rewrite pass is advisory: any internal failure degrades to
    // the (already validated) input netlist instead of aborting the
    // surrounding isolation flow.
    res.netlist = nl;
    res.rewritten = false;
    res.verified = false;
    res.cells_after = nl.num_cells();
    res.fallback_reason = std::string("internal: ") + e.what();
    obs::metrics().counter("rewrite.fallbacks").add(1);
  }
  return res;
}

Netlist optimize(const Netlist& nl, std::map<std::string, std::uint64_t>* rules_fired) {
  nl.validate();
  GraphBuild b = build_egraph(nl);
  std::map<std::string, std::uint64_t> fired;
  Saturator sat{b.g, std::numeric_limits<std::size_t>::max(), /*algebra=*/false, fired};
  while (sat.round()) {
  }
  const AreaModel area;
  const NodeCost cost = [&area](const ENode& n) {
    return cell_kind_is_operator(n.kind) ? area.cell_area_um2(n.kind, n.width) : 0.0;
  };
  const Extraction ex = extract(b.g, cost);
  Netlist out = Emitter(nl, b, ex, cost).run();
  if (rules_fired != nullptr) *rules_fired = std::move(fired);
  return out;
}

obs::JsonValue rewrite_report_section(const RewriteResult& r) {
  obs::JsonValue doc = obs::JsonValue::object();
  doc["schema"] = "opiso.rewrite/v1";
  doc["rewritten"] = r.rewritten;
  doc["verified"] = r.verified;
  if (!r.fallback_reason.empty()) doc["fallback_reason"] = r.fallback_reason;
  doc["iterations"] = r.iterations;
  doc["saturated"] = r.saturated;
  doc["budget_exhausted"] = r.budget_exhausted;
  obs::JsonValue eg = obs::JsonValue::object();
  eg["classes"] = static_cast<std::uint64_t>(r.egraph_classes);
  eg["nodes"] = static_cast<std::uint64_t>(r.egraph_nodes);
  doc["egraph"] = std::move(eg);
  obs::JsonValue rules = obs::JsonValue::object();
  for (const auto& [name, count] : r.rules_fired) rules[name] = count;
  doc["rules_fired"] = std::move(rules);
  obs::JsonValue ext = obs::JsonValue::object();
  ext["cost_before"] = r.cost_before;
  ext["cost_after"] = r.cost_after;
  ext["est_power_before_mw"] = r.est_power_before_mw;
  if (r.est_power_after_mw) ext["est_power_after_mw"] = *r.est_power_after_mw;
  ext["pr_idle"] = r.pr_idle;
  doc["extraction"] = std::move(ext);
  obs::JsonValue cells = obs::JsonValue::object();
  cells["before"] = static_cast<std::uint64_t>(r.cells_before);
  cells["after"] = static_cast<std::uint64_t>(r.cells_after);
  doc["cells"] = std::move(cells);
  obs::JsonValue ver = obs::JsonValue::object();
  ver["obligations_checked"] = static_cast<std::uint64_t>(r.verify_obligations);
  if (!r.verify_stopped_at.empty()) ver["stopped_at"] = r.verify_stopped_at;
  doc["verify"] = std::move(ver);
  return doc;
}

}  // namespace opiso
