#include "opt/passes.hpp"

#include <map>
#include <optional>

#include "netlist/traversal.hpp"

namespace opiso {

namespace {

struct Rebuilder {
  const Netlist& old_nl;
  const OptimizeOptions& opt;
  OptimizeStats& stats;
  Netlist out;
  std::vector<NetId> net_map;                      ///< old net -> new net
  std::vector<std::optional<std::uint64_t>> value; ///< new net -> const value
  std::map<std::pair<std::uint64_t, unsigned>, NetId> const_cache;
  /// CSE key: (kind, param, input nets, output width). The width is
  /// part of the key, so two structurally identical cells can only
  /// merge when their results agree bit-for-bit — a hit never needs a
  /// width check, and a mismatch can never poison the cache entry.
  std::map<std::tuple<int, std::uint64_t, std::vector<std::uint32_t>, unsigned>, NetId>
      cse_cache;

  explicit Rebuilder(const Netlist& nl, const OptimizeOptions& o, OptimizeStats& s)
      : old_nl(nl), opt(o), stats(s), out(nl.name()) {
    net_map.assign(nl.num_nets(), NetId::invalid());
  }

  NetId mapped(NetId old_net) const {
    const NetId n = net_map[old_net.value()];
    OPISO_ASSERT(n.valid(), "optimize: input mapped before its driver");
    return n;
  }

  std::optional<std::uint64_t> const_of(NetId new_net) const {
    return value[new_net.value()];
  }

  NetId make_const(std::uint64_t v, unsigned width, const std::string& name_hint) {
    const auto key = std::make_pair(v, width);
    if (auto it = const_cache.find(key); it != const_cache.end()) return it->second;
    const NetId net = out.add_const(out.fresh_net_name(name_hint), v, width);
    value.resize(out.num_nets());
    value[net.value()] = v;
    const_cache.emplace(key, net);
    return net;
  }

  NetId make_cell(CellKind kind, const std::string& cell_name, const std::string& net_name,
                  unsigned width, const std::vector<NetId>& ins, std::uint64_t param) {
    const NetId net = out.add_net(out.fresh_net_name(net_name), width);
    out.add_cell(kind, out.fresh_cell_name(cell_name), ins, net, param);
    value.resize(out.num_nets());
    return net;
  }

  /// Alias: the old cell's output is exactly an existing new net.
  NetId alias(NetId existing, unsigned want_width) {
    if (out.net(existing).width == want_width) {
      ++stats.simplified;
      return existing;
    }
    return NetId::invalid();
  }

  /// Identity/annihilator rewrites; returns invalid if no rule applies.
  NetId simplify(const Cell& c, unsigned out_w, const std::vector<NetId>& in) {
    auto cv = [&](int p) { return const_of(in[static_cast<size_t>(p)]); };
    auto full = [&](int p) { return width_mask(out.net(in[static_cast<size_t>(p)]).width); };
    switch (c.kind) {
      case CellKind::Buf:
        return alias(in[0], out_w);
      case CellKind::Not: {
        // Register Q nets exist before their cells in phase A (the reg
        // cells are created in phase B), so the input may be undriven.
        const CellId drv_id = out.net(in[0]).driver;
        if (!drv_id.valid()) return NetId::invalid();
        const Cell& drv = out.cell(drv_id);
        if (drv.kind == CellKind::Not) return alias(drv.ins[0], out_w);  // double negation
        return NetId::invalid();
      }
      case CellKind::And:
        if (cv(0) == 0 || cv(1) == 0) { ++stats.simplified; return make_const(0, out_w, "zero"); }
        // The all-ones identity needs the constant to span the output
        // word: a narrower ones-constant is zero-extended and masks.
        if (cv(0) == full(0) && out.net(in[0]).width == out_w) return alias(in[1], out_w);
        if (cv(1) == full(1) && out.net(in[1]).width == out_w) return alias(in[0], out_w);
        if (in[0] == in[1]) return alias(in[0], out_w);
        return NetId::invalid();
      case CellKind::Or:
        if (cv(0) == 0) return alias(in[1], out_w);
        if (cv(1) == 0) return alias(in[0], out_w);
        if (in[0] == in[1]) return alias(in[0], out_w);
        if ((cv(0) == full(0) || cv(1) == full(1)) &&
            out.net(in[0]).width == out_w && out.net(in[1]).width == out_w) {
          ++stats.simplified;
          return make_const(width_mask(out_w), out_w, "ones");
        }
        return NetId::invalid();
      case CellKind::Xor:
        if (cv(0) == 0) return alias(in[1], out_w);
        if (cv(1) == 0) return alias(in[0], out_w);
        if (in[0] == in[1]) { ++stats.simplified; return make_const(0, out_w, "zero"); }
        return NetId::invalid();
      case CellKind::Mux2:
        if (cv(0).has_value()) {
          return alias((*cv(0) & 1) ? in[2] : in[1], out_w);
        }
        if (in[1] == in[2]) return alias(in[1], out_w);
        return NetId::invalid();
      case CellKind::Shl:
      case CellKind::Shr:
        if (c.param == 0) return alias(in[0], out_w);
        return NetId::invalid();
      case CellKind::Add:
        if (cv(0) == 0) return alias(in[1], out_w);
        if (cv(1) == 0) return alias(in[0], out_w);
        return NetId::invalid();
      case CellKind::Sub:
        if (cv(1) == 0) return alias(in[0], out_w);
        return NetId::invalid();
      case CellKind::Mul:
        if (cv(0) == 0 || cv(1) == 0) { ++stats.simplified; return make_const(0, out_w, "zero"); }
        return NetId::invalid();
      case CellKind::IsoAnd:
      case CellKind::IsoOr:
      case CellKind::IsoLatch:
        // AS constant-1 banks are transparent wires.
        if (cv(1).has_value() && (*cv(1) & 1) == 1) return alias(in[0], out_w);
        if (c.kind == CellKind::IsoAnd && cv(1) == 0) {
          ++stats.simplified;
          return make_const(0, out_w, "zero");
        }
        // AS constant-0: a dead OR-isolated module forces all-ones,
        // symmetric with the IsoAnd zero rule above (same width guard
        // as the Or ones-rule: only fold when the data input spans the
        // full output word).
        if (c.kind == CellKind::IsoOr && cv(1) == 0 &&
            out.net(in[0]).width == out_w) {
          ++stats.simplified;
          return make_const(width_mask(out_w), out_w, "ones");
        }
        return NetId::invalid();
      default:
        return NetId::invalid();
    }
  }
};

}  // namespace

Netlist optimize(const Netlist& nl, const OptimizeOptions& opt, OptimizeStats* stats_out) {
  nl.validate();
  OptimizeStats stats;
  stats.cells_before = nl.num_cells();

  // ---- liveness: everything that can reach a primary output ----------
  std::vector<bool> live_cell(nl.num_cells(), false);
  {
    std::vector<CellId> work;
    for (CellId po : nl.primary_outputs()) {
      live_cell[po.value()] = true;
      work.push_back(po);
    }
    while (!work.empty()) {
      const CellId id = work.back();
      work.pop_back();
      for (NetId in : nl.cell(id).ins) {
        const CellId drv = nl.net(in).driver;
        if (!live_cell[drv.value()]) {
          live_cell[drv.value()] = true;
          work.push_back(drv);
        }
      }
    }
    if (!opt.dead_code_elim) {
      std::fill(live_cell.begin(), live_cell.end(), true);
    }
  }

  Rebuilder rb(nl, opt, stats);
  for (CellId id : nl.cell_ids()) {
    const Cell& c = nl.cell(id);
    if (!live_cell[id.value()] && c.kind != CellKind::PrimaryInput) ++stats.dead_removed;
  }

  // ---- phase A0a: primary inputs (interface, original order).
  for (CellId pi : nl.primary_inputs()) {
    const Cell& c = nl.cell(pi);
    const NetId net = rb.out.add_input(nl.net(c.out).name, c.width);
    rb.value.resize(rb.out.num_nets());
    rb.net_map[c.out.value()] = net;
  }

  // ---- phase A0b: live registers. Only their Q nets are created here
  // (register outputs are sources for the combinational rebuild); the
  // Reg cells themselves are added in phase B, once every D/EN cone is
  // mapped, so no placeholder pins or cells ever exist.
  struct RegPatch {
    std::string name;
    NetId q;
    NetId old_d;
    NetId old_en;
  };
  std::vector<RegPatch> patches;
  for (CellId id : nl.cell_ids()) {
    const Cell& c = nl.cell(id);
    if (c.kind != CellKind::Reg || !live_cell[id.value()]) continue;
    const NetId q = rb.out.add_net(rb.out.fresh_net_name(nl.net(c.out).name), c.width);
    rb.value.resize(rb.out.num_nets());
    rb.net_map[c.out.value()] = q;
    patches.push_back(RegPatch{c.name, q, c.ins[0], c.ins[1]});
  }

  // ---- phase A: combinational cells in topological order.
  for (CellId id : topological_order(nl)) {
    const Cell& c = nl.cell(id);
    if (c.kind == CellKind::Reg || c.kind == CellKind::PrimaryOutput ||
        c.kind == CellKind::PrimaryInput) {
      continue;
    }
    if (!live_cell[id.value()]) continue;
    switch (c.kind) {
      case CellKind::Constant: {
        rb.net_map[c.out.value()] = rb.make_const(c.param, c.width, nl.net(c.out).name);
        break;
      }
      default: {
        std::vector<NetId> in;
        in.reserve(c.ins.size());
        for (NetId old_in : c.ins) in.push_back(rb.mapped(old_in));

        // Constant folding.
        if (opt.constant_fold && cell_kind_is_operator(c.kind)) {
          bool all_const = true;
          std::vector<std::uint64_t> vals;
          for (NetId n : in) {
            const auto v = rb.const_of(n);
            if (!v) {
              all_const = false;
              break;
            }
            vals.push_back(*v);
          }
          if (all_const) {
            rb.net_map[c.out.value()] =
                rb.make_const(cell_kind_eval(c.kind, c.param, c.width, vals), c.width,
                            nl.net(c.out).name);
            ++stats.folded_constants;
            break;
          }
        }
        // Local rewrites.
        if (opt.simplify) {
          const NetId rewritten = rb.simplify(c, c.width, in);
          if (rewritten.valid()) {
            rb.net_map[c.out.value()] = rewritten;
            break;
          }
        }
        // Common-subexpression elimination (combinational only).
        if (opt.cse && cell_kind_is_operator(c.kind)) {
          std::vector<std::uint32_t> key_ins;
          for (NetId n : in) key_ins.push_back(n.value());
          const auto key =
              std::make_tuple(static_cast<int>(c.kind), c.param, key_ins, c.width);
          if (auto it = rb.cse_cache.find(key); it != rb.cse_cache.end()) {
            rb.net_map[c.out.value()] = it->second;
            ++stats.cse_merged;
            break;
          }
          const NetId net =
              rb.make_cell(c.kind, c.name, nl.net(c.out).name, c.width, in, c.param);
          rb.cse_cache.emplace(key, net);
          rb.net_map[c.out.value()] = net;
          break;
        }
        rb.net_map[c.out.value()] =
            rb.make_cell(c.kind, c.name, nl.net(c.out).name, c.width, in, c.param);
        break;
      }
    }
  }

  // ---- phase B: create the register cells on their real pins.
  for (const RegPatch& p : patches) {
    rb.out.add_cell(CellKind::Reg, rb.out.fresh_cell_name(p.name),
                    {rb.mapped(p.old_d), rb.mapped(p.old_en)}, p.q);
  }

  // ---- phase C: primary outputs in original order.
  for (CellId po : nl.primary_outputs()) {
    const Cell& c = nl.cell(po);
    rb.out.add_cell(CellKind::PrimaryOutput, rb.out.fresh_cell_name(c.name),
                    {rb.mapped(c.ins[0])}, NetId::invalid());
  }

  rb.out.validate();
  stats.cells_after = rb.out.num_cells();
  if (stats_out) *stats_out = stats;
  return rb.out;
}

}  // namespace opiso
