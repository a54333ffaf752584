// Tests for the ROBDD manager: canonicity, Boolean operators,
// quantification, probability/sat-count, and the Expr bridges.
#include <gtest/gtest.h>

#include "boolfn/bdd.hpp"
#include "support/rng.hpp"
#include "util/error.hpp"

namespace opiso {
namespace {

class BddTest : public ::testing::Test {
 protected:
  BddManager m;
  BddRef x0 = m.var(0);
  BddRef x1 = m.var(1);
  BddRef x2 = m.var(2);
};

TEST_F(BddTest, TerminalIdentities) {
  EXPECT_TRUE(m.is_zero(m.band(x0, m.zero())));
  EXPECT_EQ(m.band(x0, m.one()), x0);
  EXPECT_EQ(m.bor(x0, m.zero()), x0);
  EXPECT_TRUE(m.is_one(m.bor(x0, m.one())));
}

TEST_F(BddTest, CanonicityMakesEquivalenceTrivial) {
  // (x0 & x1) | (x0 & x2) == x0 & (x1 | x2)
  BddRef lhs = m.bor(m.band(x0, x1), m.band(x0, x2));
  BddRef rhs = m.band(x0, m.bor(x1, x2));
  EXPECT_TRUE(m.equal(lhs, rhs));
}

TEST_F(BddTest, DeMorgan) {
  EXPECT_TRUE(m.equal(m.bnot(m.band(x0, x1)), m.bor(m.bnot(x0), m.bnot(x1))));
}

TEST_F(BddTest, XorTruthTable) {
  BddRef f = m.bxor(x0, x1);
  EXPECT_FALSE(m.eval(f, [](BoolVar) { return false; }));
  EXPECT_TRUE(m.eval(f, [](BoolVar v) { return v == 0; }));
  EXPECT_TRUE(m.eval(f, [](BoolVar v) { return v == 1; }));
  EXPECT_FALSE(m.eval(f, [](BoolVar) { return true; }));
}

TEST_F(BddTest, ComplementLemma) {
  BddRef f = m.bor(m.band(x0, x1), x2);
  EXPECT_TRUE(m.is_zero(m.band(f, m.bnot(f))));
  EXPECT_TRUE(m.is_one(m.bor(f, m.bnot(f))));
}

TEST_F(BddTest, RestrictIsCofactor) {
  BddRef f = m.bor(m.band(x0, x1), m.band(m.bnot(x0), x2));
  EXPECT_TRUE(m.equal(m.restrict_var(f, 0, true), x1));
  EXPECT_TRUE(m.equal(m.restrict_var(f, 0, false), x2));
}

TEST_F(BddTest, Quantification) {
  BddRef f = m.band(x0, x1);
  EXPECT_TRUE(m.equal(m.exists(f, 0), x1));
  BddRef g = m.bor(x0, x1);
  EXPECT_TRUE(m.is_one(m.exists(g, 0)));
}

TEST_F(BddTest, Implication) {
  EXPECT_TRUE(m.implies(m.band(x0, x1), x0));
  EXPECT_FALSE(m.implies(x0, m.band(x0, x1)));
  EXPECT_TRUE(m.implies(m.zero(), x0));
  EXPECT_TRUE(m.implies(x0, m.one()));
}

TEST_F(BddTest, ProbabilityIndependentVars) {
  // Pr[x0 & x1] = p0*p1; Pr[x0 | x1] = p0 + p1 - p0*p1.
  auto p = [](BoolVar v) { return v == 0 ? 0.3 : 0.6; };
  EXPECT_NEAR(m.probability(m.band(x0, x1), p), 0.18, 1e-12);
  EXPECT_NEAR(m.probability(m.bor(x0, x1), p), 0.72, 1e-12);
  EXPECT_NEAR(m.probability(m.bnot(x0), p), 0.7, 1e-12);
}

TEST_F(BddTest, SupportAndSize) {
  BddRef f = m.bor(m.band(x0, x1), x2);
  const auto sup = m.support(f);
  EXPECT_EQ(sup, (std::vector<BoolVar>{0, 1, 2}));
  EXPECT_GE(m.size(f), 3u);
  EXPECT_EQ(m.size(m.one()), 0u);
}

TEST_F(BddTest, FromExprToExprRoundTrip) {
  ExprPool pool;
  // S2·G1 + S1·!S0·G0 — the paper's AS_a1.
  ExprRef e = pool.lor(pool.land(pool.var(0), pool.var(1)),
                       pool.land(pool.var(2), pool.land(pool.lnot(pool.var(3)), pool.var(4))));
  BddRef f = m.from_expr(pool, e);
  ExprRef back = m.to_expr(pool, f);
  // Semantics preserved over all 32 assignments.
  for (int mt = 0; mt < 32; ++mt) {
    auto assign = [&](BoolVar v) { return (mt >> v) & 1; };
    EXPECT_EQ(pool.eval(e, assign), pool.eval(back, assign));
  }
}

TEST(BddBudgetTest, NodeBudgetThrowsStructuredResourceError) {
  // Terminals occupy two slots, so a 4-node budget dies within a few
  // variables — and does so with the stable resource.bdd-nodes code.
  BddManager tiny(BddBudget{4, 0});
  try {
    BddRef acc = tiny.var(0);
    for (BoolVar v = 1; v < 16; ++v) acc = tiny.band(acc, tiny.var(v));
    FAIL() << "expected the node budget to trip";
  } catch (const ResourceError& e) {
    EXPECT_EQ(e.code(), ErrCode::ResourceBddNodes);
    EXPECT_EQ(e.severity(), Severity::Warning);  // recoverable by contract
  }
  // The manager survives the refusal: terminals and existing nodes
  // still answer queries, so callers can degrade instead of rebuild.
  EXPECT_TRUE(tiny.is_one(tiny.one()));
  EXPECT_TRUE(tiny.is_zero(tiny.band(tiny.zero(), tiny.one())));
}

TEST(BddBudgetTest, IteCacheBudgetThrows) {
  BddManager tiny(BddBudget{0, 1});
  try {
    BddRef acc = tiny.var(0);
    for (BoolVar v = 1; v < 16; ++v) acc = tiny.bor(acc, tiny.band(tiny.var(v), acc));
    FAIL() << "expected the ITE cache budget to trip";
  } catch (const ResourceError& e) {
    EXPECT_EQ(e.code(), ErrCode::ResourceIteCache);
  }
}

TEST(BddBudgetTest, ZeroBudgetMeansUnlimited) {
  BddManager unbounded(BddBudget{});
  BddRef acc = unbounded.var(0);
  for (BoolVar v = 1; v < 24; ++v) acc = unbounded.band(acc, unbounded.var(v));
  EXPECT_FALSE(unbounded.is_zero(acc));
  EXPECT_GT(unbounded.stats().unique_misses, 24u);
}

TEST(BddBudgetTest, GenerousBudgetNeverTriggers) {
  // Same computation under a roomy budget: identical result, no throw —
  // the budget is pure back-pressure, not a behavior change.
  ExprPool pool;
  ExprRef e = pool.lor(pool.land(pool.var(0), pool.var(1)),
                       pool.land(pool.var(2), pool.land(pool.lnot(pool.var(3)), pool.var(4))));
  BddManager roomy(BddBudget{1u << 16, 1u << 16});
  BddManager unbounded;
  ExprRef a = roomy.simplify_expr(pool, e);
  ExprRef b = unbounded.simplify_expr(pool, e);
  for (int mt = 0; mt < 32; ++mt) {
    auto assign = [&](BoolVar v) { return (mt >> v) & 1; };
    EXPECT_EQ(pool.eval(a, assign), pool.eval(b, assign));
  }
}

// Parameterized property: random expressions and their BDDs agree on
// every assignment, and to_expr(from_expr(e)) is equivalent to e.
class BddRandomProperty : public ::testing::TestWithParam<int> {};

TEST_P(BddRandomProperty, ExprBddAgreement) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  ExprPool pool;
  BddManager mgr;
  constexpr int kVars = 6;
  std::vector<ExprRef> stack{pool.var(0)};
  for (int i = 0; i < 20; ++i) {
    const int op = static_cast<int>(rng.next_range(0, 3));
    if (op == 0 || stack.size() < 2) {
      stack.push_back(pool.var(static_cast<BoolVar>(rng.next_range(0, kVars - 1))));
    } else if (op == 1) {
      stack.back() = pool.lnot(stack.back());
    } else {
      ExprRef a = stack.back();
      stack.pop_back();
      stack.back() = op == 2 ? pool.land(stack.back(), a) : pool.lor(stack.back(), a);
    }
  }
  const ExprRef e = stack.back();
  const BddRef f = mgr.from_expr(pool, e);
  const ExprRef back = mgr.to_expr(pool, f);
  for (int mt = 0; mt < (1 << kVars); ++mt) {
    auto assign = [&](BoolVar v) { return (mt >> v) & 1; };
    const bool expect = pool.eval(e, assign);
    EXPECT_EQ(mgr.eval(f, assign), expect);
    EXPECT_EQ(pool.eval(back, assign), expect);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddRandomProperty, ::testing::Range(0, 25));

}  // namespace
}  // namespace opiso
