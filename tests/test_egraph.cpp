// Tests for the e-graph core: hashcons, union-find, congruence
// rebuild, width discipline, deterministic iteration.
#include <gtest/gtest.h>

#include <sstream>

#include "opt/egraph.hpp"
#include "util/error.hpp"

namespace opiso {
namespace {

ENode leaf(std::uint64_t net, unsigned width) {
  ENode n;
  n.kind = CellKind::PrimaryInput;
  n.param = net;
  n.width = width;
  return n;
}

ENode konst(std::uint64_t value, unsigned width) {
  ENode n;
  n.kind = CellKind::Constant;
  n.param = value;
  n.width = width;
  return n;
}

ENode binop(CellKind kind, EClassId a, EClassId b, unsigned width) {
  ENode n;
  n.kind = kind;
  n.width = width;
  n.children = {a, b};
  return n;
}

TEST(EGraph, HashconsDeduplicates) {
  EGraph g;
  const EClassId a = g.add(leaf(0, 8));
  const EClassId b = g.add(leaf(1, 8));
  const EClassId s1 = g.add(binop(CellKind::Add, a, b, 8));
  const EClassId s2 = g.add(binop(CellKind::Add, a, b, 8));
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(g.num_classes(), 3u);
  EXPECT_EQ(g.num_nodes(), 3u);
  // Different operand order is a different node (commutativity is a
  // rewrite rule, not a structural identity).
  const EClassId s3 = g.add(binop(CellKind::Add, b, a, 8));
  EXPECT_NE(s1, s3);
}

TEST(EGraph, MergeTriggersCongruence) {
  EGraph g;
  const EClassId x = g.add(leaf(0, 8));
  const EClassId y = g.add(leaf(1, 8));
  const EClassId z = g.add(leaf(2, 8));
  const EClassId xz = g.add(binop(CellKind::Mul, x, z, 16));
  const EClassId yz = g.add(binop(CellKind::Mul, y, z, 16));
  EXPECT_NE(g.find(xz), g.find(yz));
  // x == y  =>  x*z == y*z by congruence.
  EXPECT_TRUE(g.merge(x, y));
  g.rebuild();
  EXPECT_EQ(g.find(x), g.find(y));
  EXPECT_EQ(g.find(xz), g.find(yz));
}

TEST(EGraph, CongruenceCascades) {
  EGraph g;
  const EClassId a = g.add(leaf(0, 4));
  const EClassId b = g.add(leaf(1, 4));
  const EClassId ab = g.add(binop(CellKind::Add, a, b, 4));
  const EClassId ba = g.add(binop(CellKind::Add, b, a, 4));
  const EClassId top1 = g.add(binop(CellKind::Xor, ab, a, 4));
  const EClassId top2 = g.add(binop(CellKind::Xor, ba, a, 4));
  g.merge(ab, ba);
  g.rebuild();
  // The parents become congruent one level up.
  EXPECT_EQ(g.find(top1), g.find(top2));
}

TEST(EGraph, MergeRejectsWidthMismatch) {
  EGraph g;
  const EClassId narrow = g.add(leaf(0, 4));
  const EClassId wide = g.add(leaf(1, 8));
  EXPECT_THROW((void)g.merge(narrow, wide), Error);
}

TEST(EGraph, SmallerIdIsCanonical) {
  EGraph g;
  const EClassId a = g.add(leaf(0, 8));
  const EClassId b = g.add(leaf(1, 8));
  g.merge(b, a);
  g.rebuild();
  EXPECT_EQ(g.find(a), a);
  EXPECT_EQ(g.find(b), a);
}

TEST(EGraph, ConstValue) {
  EGraph g;
  const EClassId k = g.add(konst(42, 8));
  const EClassId x = g.add(leaf(0, 8));
  ASSERT_TRUE(g.const_value(k).has_value());
  EXPECT_EQ(*g.const_value(k), 42u);
  EXPECT_FALSE(g.const_value(x).has_value());
  // After merging an expression class into the constant class, the
  // value is visible through either id.
  const EClassId e = g.add(binop(CellKind::Add, x, x, 8));
  g.merge(e, k);
  g.rebuild();
  EXPECT_EQ(g.const_value(e), g.const_value(k));
}

TEST(EGraph, NodeWidthMatchesNetlistRules) {
  // Saturator::mk sizes new e-nodes with the netlist's own width rule.
  using Widths = std::vector<unsigned>;
  EXPECT_EQ(cell_kind_width(CellKind::Add, Widths{4, 8}), 8u);
  EXPECT_EQ(cell_kind_width(CellKind::Mul, Widths{8, 8}), 16u);
  EXPECT_EQ(cell_kind_width(CellKind::Mul, Widths{40, 40}), 64u);
  EXPECT_EQ(cell_kind_width(CellKind::Eq, Widths{8, 8}), 1u);
  EXPECT_EQ(cell_kind_width(CellKind::Shl, Widths{8}), 8u);
  EXPECT_EQ(cell_kind_width(CellKind::Mux2, Widths{1, 4, 8}), 8u);
  EXPECT_EQ(cell_kind_width(CellKind::IsoAnd, Widths{8, 1}), 8u);
}

TEST(EGraph, DeterministicIterationOrder) {
  // Two graphs built by the same insertion sequence report identical
  // class ids and node orders — the substrate of bitwise-identical
  // opiso.rewrite/v1 sections.
  const auto build = [] {
    EGraph g;
    const EClassId a = g.add(leaf(0, 8));
    const EClassId b = g.add(leaf(1, 8));
    const EClassId s = g.add(binop(CellKind::Add, a, b, 8));
    g.add(binop(CellKind::Add, b, a, 8));
    g.add(binop(CellKind::Mul, s, b, 16));
    g.merge(g.add(binop(CellKind::Add, b, a, 8)), s);
    g.rebuild();
    std::ostringstream os;
    for (EClassId c : g.class_ids()) {
      os << c << ":";
      for (const ENode& n : g.nodes(c)) {
        os << static_cast<int>(n.kind) << "/" << n.param << "/" << n.width;
        for (EClassId ch : n.children) os << "," << g.find(ch);
        os << ";";
      }
    }
    return os.str();
  };
  EXPECT_EQ(build(), build());
}

}  // namespace
}  // namespace opiso
