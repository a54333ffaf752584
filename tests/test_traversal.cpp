// Tests for topological ordering, combinational-block partitioning and
// cone computations.
#include <gtest/gtest.h>

#include "designs/designs.hpp"
#include "netlist/traversal.hpp"

namespace opiso {
namespace {

/// Position map helper.
std::vector<std::size_t> positions(const Netlist& nl, const std::vector<CellId>& order) {
  std::vector<std::size_t> pos(nl.num_cells());
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i].value()] = i;
  return pos;
}

TEST(Traversal, TopoOrderCoversAllCells) {
  const Netlist nl = make_design1(8);
  const auto order = topological_order(nl);
  EXPECT_EQ(order.size(), nl.num_cells());
}

TEST(Traversal, TopoOrderRespectsCombDependencies) {
  const Netlist nl = make_design1(8);
  const auto order = topological_order(nl);
  const auto pos = positions(nl, order);
  for (CellId id : nl.cell_ids()) {
    const Cell& c = nl.cell(id);
    if (c.kind == CellKind::Reg || c.kind == CellKind::PrimaryInput ||
        c.kind == CellKind::Constant) {
      continue;
    }
    for (NetId in : c.ins) {
      const CellId drv = nl.net(in).driver;
      const Cell& d = nl.cell(drv);
      if (d.kind == CellKind::Reg || d.kind == CellKind::PrimaryInput ||
          d.kind == CellKind::Constant) {
        continue;
      }
      EXPECT_LT(pos[drv.value()], pos[id.value()])
          << "cell " << c.name << " ordered before its driver " << d.name;
    }
  }
}

TEST(Traversal, DetectsCombinationalCycle) {
  Netlist nl;
  NetId a = nl.add_input("a", 1);
  // x = a & y ; y = x | a  — a combinational loop.
  NetId x = nl.add_net("x", 1);
  NetId y = nl.add_net("y", 1);
  nl.add_cell(CellKind::And, "gx", {a, y}, x);
  nl.add_cell(CellKind::Or, "gy", {x, a}, y);
  EXPECT_THROW(topological_order(nl), NetlistError);
  EXPECT_THROW(nl.validate(), NetlistError);
}

TEST(Traversal, RegistersBreakCycles) {
  // Accumulator feedback through a register must be legal.
  Netlist nl;
  NetId one = nl.add_const("one", 1, 1);
  NetId d0 = nl.add_const("d0", 0, 8);
  NetId acc = nl.add_reg("acc", d0, one);
  NetId in = nl.add_input("in", 8);
  NetId sum = nl.add_binop(CellKind::Add, "sum", acc, in);
  nl.reconnect_input(nl.net(acc).driver, 0, sum);
  nl.add_output("o", acc);
  EXPECT_NO_THROW(nl.validate());
}

TEST(Traversal, Design1HasFourCombBlocks) {
  // Stage 1 contributes two independent blocks (mul1 cone, add1 cone);
  // stage 2 splits into the add2/sub2/add3 network and the mul2/mux_c
  // network — registers connect them sequentially, not combinationally.
  const Netlist nl = make_design1(8);
  const auto blocks = combinational_blocks(nl);
  EXPECT_EQ(blocks.size(), 4u);
}

TEST(Traversal, BlockCellsAreDisjointAndComplete) {
  const Netlist nl = make_design2(8, 2);
  const auto blocks = combinational_blocks(nl);
  std::vector<int> seen(nl.num_cells(), 0);
  for (const CombBlock& b : blocks) {
    for (CellId id : b.cells) ++seen[id.value()];
  }
  std::size_t comb_cells = 0;
  for (CellId id : nl.cell_ids()) {
    const CellKind k = nl.cell(id).kind;
    const bool comb = k != CellKind::Reg && k != CellKind::PrimaryInput &&
                      k != CellKind::PrimaryOutput && k != CellKind::Constant;
    if (comb) {
      ++comb_cells;
      EXPECT_EQ(seen[id.value()], 1) << nl.cell(id).name;
    } else {
      EXPECT_EQ(seen[id.value()], 0) << nl.cell(id).name;
    }
  }
  std::size_t in_blocks = 0;
  for (const CombBlock& b : blocks) in_blocks += b.cells.size();
  EXPECT_EQ(in_blocks, comb_cells);
}

TEST(Traversal, FanoutConeStopsAtRegisters) {
  const Netlist nl = make_design1(8);
  const CellId mul1 = nl.net(nl.find_net("mul1")).driver;
  const auto cone = combinational_fanout_cone(nl, mul1);
  // mul1 feeds reg_p directly: cone is just the multiplier itself.
  EXPECT_EQ(cone.size(), 1u);
  EXPECT_EQ(cone[0], mul1);
}

TEST(Traversal, FaninConeCollectsSteeringNetwork) {
  const Netlist nl = make_design1(8);
  const CellId add3 = nl.net(nl.find_net("add3")).driver;
  const auto cone = combinational_fanin_cone(nl, add3);
  // add3 <- mux_a <- {add2, sub2}: four comb cells incl. itself.
  EXPECT_EQ(cone.size(), 4u);
}

TEST(Traversal, NetInCombinationalFanout) {
  const Netlist nl = make_design1(8);
  const CellId add2 = nl.net(nl.find_net("add2")).driver;
  EXPECT_TRUE(net_in_combinational_fanout(nl, add2, nl.find_net("add3")));
  EXPECT_TRUE(net_in_combinational_fanout(nl, add2, nl.find_net("add2")));
  EXPECT_FALSE(net_in_combinational_fanout(nl, add2, nl.find_net("sub2")));
  EXPECT_FALSE(net_in_combinational_fanout(nl, add2, nl.find_net("reg_p")));
}

}  // namespace
}  // namespace opiso
