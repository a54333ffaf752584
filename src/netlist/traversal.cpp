#include "netlist/traversal.hpp"

#include <algorithm>
#include <queue>

namespace opiso {

namespace {

/// True if the cell's output is available without evaluating its inputs
/// this cycle (sequential state, stimulus, or constants).
bool is_source(CellKind kind) {
  return kind == CellKind::Reg || kind == CellKind::PrimaryInput || kind == CellKind::Constant;
}

/// Combinational cells for block-partitioning purposes. Latches are
/// level-sensitive state but live inside combinational regions: the
/// paper treats sequential *boundaries* as edge-triggered registers.
bool is_comb(CellKind kind) {
  return !is_source(kind) && kind != CellKind::PrimaryOutput;
}

}  // namespace

std::vector<CellId> topological_order(const Netlist& nl) {
  const std::size_t n = nl.num_cells();
  std::vector<int> pending(n, 0);
  std::queue<CellId> ready;
  // All sources are seeded before any combinational cell, regardless of
  // cell id. A zero-dependency combinational cell whose inputs include
  // a register Q must still evaluate after that register: the simulator
  // refreshes Q from the captured state when it visits the Reg cell, so
  // an id-interleaved seeding would hand later-created registers' old
  // values to earlier-created readers.
  for (std::uint32_t i = 0; i < n; ++i) {
    const Cell& c = nl.cell(CellId{i});
    if (is_source(c.kind)) {
      pending[i] = 0;
      ready.push(CellId{i});
    }
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    const Cell& c = nl.cell(CellId{i});
    if (is_source(c.kind)) continue;
    int deps = 0;
    for (NetId in : c.ins) {
      const Cell& drv = nl.cell(nl.net(in).driver);
      if (!is_source(drv.kind)) ++deps;
    }
    pending[i] = deps;
    if (deps == 0) ready.push(CellId{i});
  }
  std::vector<CellId> order;
  order.reserve(n);
  while (!ready.empty()) {
    CellId id = ready.front();
    ready.pop();
    order.push_back(id);
    const Cell& c = nl.cell(id);
    if (is_source(c.kind) || !c.out.valid()) continue;
    for (const Pin& pin : nl.net(c.out).fanouts) {
      const Cell& sink = nl.cell(pin.cell);
      if (is_source(sink.kind)) continue;
      if (--pending[pin.cell.value()] == 0) ready.push(pin.cell);
    }
  }
  // Registers/PIs that consume nets were pushed as sources already; a
  // shortfall means a combinational cycle. Name the actual cycle (via
  // the SCC decomposition) rather than an arbitrary pending cell — the
  // blocked cell Kahn leaves behind is often merely downstream of it.
  if (order.size() != n) {
    const std::vector<std::vector<CellId>> sccs = combinational_sccs(nl);
    if (!sccs.empty()) {
      throw NetlistError("combinational cycle through " +
                         describe_comb_cycle(nl, sccs.front()));
    }
    throw NetlistError("combinational cycle detected");
  }
  return order;
}

std::vector<std::vector<CellId>> combinational_sccs(const Netlist& nl) {
  const std::size_t n = nl.num_cells();
  constexpr std::uint32_t kUnvisited = 0xFFFFFFFFu;
  std::vector<std::uint32_t> index(n, kUnvisited);
  std::vector<std::uint32_t> low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<bool> self_loop(n, false);
  std::vector<std::uint32_t> stack;
  std::vector<std::vector<CellId>> sccs;
  std::uint32_t next_index = 0;

  // Explicit DFS frames (cell + next fanout edge) instead of recursion:
  // a cyclic input must produce a diagnostic, not a stack overflow, and
  // cycles imply arbitrarily deep walks.
  struct Frame {
    std::uint32_t cell;
    std::size_t edge;
  };
  std::vector<Frame> frames;

  auto comb_edges = [&](std::uint32_t c) -> const std::vector<Pin>* {
    const Cell& cell = nl.cell(CellId{c});
    if (!is_comb(cell.kind) || !cell.out.valid()) return nullptr;
    return &nl.net(cell.out).fanouts;
  };

  for (std::uint32_t root = 0; root < n; ++root) {
    if (!is_comb(nl.cell(CellId{root}).kind) || index[root] != kUnvisited) continue;
    index[root] = low[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;
    frames.push_back(Frame{root, 0});
    while (!frames.empty()) {
      const std::uint32_t cur = frames.back().cell;
      const std::vector<Pin>* edges = comb_edges(cur);
      bool descended = false;
      while (edges != nullptr && frames.back().edge < edges->size()) {
        const Pin pin = (*edges)[frames.back().edge++];
        const std::uint32_t succ = pin.cell.value();
        if (!is_comb(nl.cell(pin.cell).kind)) continue;
        if (succ == cur) self_loop[cur] = true;
        if (index[succ] == kUnvisited) {
          index[succ] = low[succ] = next_index++;
          stack.push_back(succ);
          on_stack[succ] = true;
          frames.push_back(Frame{succ, 0});
          descended = true;
          break;
        }
        if (on_stack[succ]) low[cur] = std::min(low[cur], index[succ]);
      }
      if (descended) continue;
      frames.pop_back();
      if (!frames.empty()) {
        low[frames.back().cell] = std::min(low[frames.back().cell], low[cur]);
      }
      if (low[cur] == index[cur]) {
        std::vector<CellId> comp;
        while (true) {
          const std::uint32_t m = stack.back();
          stack.pop_back();
          on_stack[m] = false;
          comp.emplace_back(m);
          if (m == cur) break;
        }
        if (comp.size() > 1 || self_loop[cur]) {
          std::sort(comp.begin(), comp.end(),
                    [](CellId a, CellId b) { return a.value() < b.value(); });
          sccs.push_back(std::move(comp));
        }
      }
    }
  }
  std::sort(sccs.begin(), sccs.end(),
            [](const std::vector<CellId>& a, const std::vector<CellId>& b) {
              return a.front().value() < b.front().value();
            });
  return sccs;
}

std::string describe_comb_cycle(const Netlist& nl, const std::vector<CellId>& scc) {
  constexpr std::size_t kMaxNamed = 4;
  std::string out;
  const std::size_t shown = std::min(scc.size(), kMaxNamed);
  for (std::size_t i = 0; i < shown; ++i) {
    if (i > 0) out += " -> ";
    out += "'" + nl.cell(scc[i]).name + "'";
  }
  if (scc.size() > kMaxNamed) {
    out += " ... (+" + std::to_string(scc.size() - kMaxNamed) + " more)";
  } else if (scc.size() > 1) {
    out += " -> '" + nl.cell(scc.front()).name + "'";
  } else {
    out += " -> '" + nl.cell(scc.front()).name + "' (self-loop)";
  }
  return out;
}

std::vector<CombBlock> combinational_blocks(const Netlist& nl) {
  const std::size_t n = nl.num_cells();
  // Union-find over combinational cells joined through nets whose driver
  // and consumer are both combinational.
  std::vector<std::uint32_t> parent(n);
  for (std::uint32_t i = 0; i < n; ++i) parent[i] = i;
  auto find = [&](std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  auto unite = [&](std::uint32_t a, std::uint32_t b) { parent[find(a)] = find(b); };

  for (NetId nid : nl.net_ids()) {
    const Net& net = nl.net(nid);
    const Cell& drv = nl.cell(net.driver);
    if (!is_comb(drv.kind)) continue;
    for (const Pin& pin : net.fanouts) {
      if (is_comb(nl.cell(pin.cell).kind)) unite(net.driver.value(), pin.cell.value());
    }
  }

  // Gather components in topological order so each block's cell list is
  // already an evaluation order.
  std::vector<CellId> topo = topological_order(nl);
  std::vector<int> root_to_block(n, -1);
  std::vector<CombBlock> blocks;
  for (CellId id : topo) {
    if (!is_comb(nl.cell(id).kind)) continue;
    const std::uint32_t root = find(id.value());
    if (root_to_block[root] < 0) {
      root_to_block[root] = static_cast<int>(blocks.size());
      blocks.push_back(CombBlock{static_cast<int>(blocks.size()), {}});
    }
    blocks[static_cast<size_t>(root_to_block[root])].cells.push_back(id);
  }
  return blocks;
}

std::vector<int> block_index_of_cells(const Netlist& nl, const std::vector<CombBlock>& blocks) {
  std::vector<int> index(nl.num_cells(), -1);
  for (const CombBlock& b : blocks) {
    for (CellId id : b.cells) index[id.value()] = b.index;
  }
  return index;
}

namespace {

template <typename NextFn>
std::vector<CellId> cone(const Netlist& nl, CellId root, NextFn&& next) {
  std::vector<bool> seen(nl.num_cells(), false);
  std::vector<CellId> result;
  std::vector<CellId> stack{root};
  seen[root.value()] = true;
  while (!stack.empty()) {
    CellId id = stack.back();
    stack.pop_back();
    result.push_back(id);
    next(id, [&](CellId nxt) {
      if (!seen[nxt.value()]) {
        seen[nxt.value()] = true;
        stack.push_back(nxt);
      }
    });
  }
  return result;
}

}  // namespace

std::vector<CellId> combinational_fanout_cone(const Netlist& nl, CellId root) {
  return cone(nl, root, [&](CellId id, auto&& push) {
    const Cell& c = nl.cell(id);
    if (!c.out.valid()) return;
    for (const Pin& pin : nl.net(c.out).fanouts) {
      if (is_comb(nl.cell(pin.cell).kind)) push(pin.cell);
    }
  });
}

std::vector<CellId> combinational_fanin_cone(const Netlist& nl, CellId root) {
  return cone(nl, root, [&](CellId id, auto&& push) {
    for (NetId in : nl.cell(id).ins) {
      CellId drv = nl.net(in).driver;
      if (is_comb(nl.cell(drv).kind)) push(drv);
    }
  });
}

bool net_in_combinational_fanout(const Netlist& nl, CellId cell, NetId net) {
  CellId target = nl.net(net).driver;
  if (target == cell) return true;
  std::vector<CellId> fan = combinational_fanout_cone(nl, cell);
  return std::find(fan.begin(), fan.end(), target) != fan.end();
}

}  // namespace opiso
