// Tests for the ROBDD manager: canonicity, Boolean operators,
// quantification, probability/sat-count, and the Expr bridges.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <ostream>
#include <vector>

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

TEST_F(BddTest, FromExprBuildsTheBOperandFirst) {
  // lint allocates a variable inside var_bdd, so the walk order is part
  // of its output: its variable order and its counterexample text.
  ExprPool pool;
  const ExprRef x0 = pool.var(0);
  const ExprRef x1 = pool.var(1);
  const ExprRef x2 = pool.var(2);
  const ExprRef both = pool.land(x0, x1);
  const ExprRef e = pool.lor(both, pool.lnot(x2));  // b is !x2, made after `both`
  std::vector<BoolVar> seen;
  const BddRef f = m.from_expr(pool, e, [&](BoolVar v) {
    seen.push_back(v);
    return m.var(v);
  });
  EXPECT_EQ(seen, (std::vector<BoolVar>{2, 1, 0}));
  EXPECT_EQ(f, m.from_expr(pool, e));
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
// every assignment, and to_expr(from_expr(e)) is equivalent to e. The
// large cases make more than 4096 non-terminal ITE calls and more than
// 2048 nodes, so the computed table sees collisions and both tables
// grow. Rebuilding the expressions in the same manager recomputes what
// the computed table lost and must find every node it needs; rebuilding
// them in a fresh manager must return the same BddRef values.
struct RandomBddCase {
  int seed;
  int vars;        ///< every one of the 2^vars assignments is checked
  int ops;         ///< stack operations per expression
  int exprs;       ///< expressions built in one manager
  bool large;      ///< assert the table-growth thresholds are crossed
};

void PrintTo(const RandomBddCase& c, std::ostream* os) {
  *os << "{seed " << c.seed << ", " << c.vars << " vars, " << c.ops << " ops, " << c.exprs
      << " exprs}";
}

class BddRandomProperty : public ::testing::TestWithParam<RandomBddCase> {};

ExprRef random_expr(Rng& rng, ExprPool& pool, int vars, int ops) {
  std::vector<ExprRef> stack{pool.var(0)};
  const auto pick_var = [&] {
    return pool.var(static_cast<BoolVar>(rng.next_range(0, static_cast<std::uint64_t>(vars - 1))));
  };
  for (int i = 0; i < ops; ++i) {
    const int op = static_cast<int>(rng.next_range(0, 4));
    if (op == 0 || stack.size() < 2) {
      stack.push_back(pick_var());
    } else if (op == 1) {
      stack.back() = pool.lnot(stack.back());
    } else {
      ExprRef a = stack.back();
      stack.pop_back();
      ExprRef b = stack.back();
      if (op == 2) {
        stack.back() = pool.land(b, a);
      } else if (op == 3) {
        stack.back() = pool.lor(b, a);
      } else {  // xor, which keeps BDDs from collapsing to constants
        stack.back() = pool.lor(pool.land(b, pool.lnot(a)), pool.land(pool.lnot(b), a));
      }
    }
  }
  ExprRef e = stack.back();
  stack.pop_back();
  while (!stack.empty()) {  // fold leftovers in so every op counts
    e = pool.lor(pool.land(stack.back(), pool.lnot(e)), pool.land(pool.lnot(stack.back()), e));
    stack.pop_back();
  }
  return e;
}

TEST_P(BddRandomProperty, ExprBddAgreement) {
  const RandomBddCase c = GetParam();
  Rng rng(static_cast<std::uint64_t>(c.seed) * 7919 + 13);
  ExprPool pool;
  std::vector<ExprRef> exprs;
  for (int i = 0; i < c.exprs; ++i) exprs.push_back(random_expr(rng, pool, c.vars, c.ops));

  BddManager mgr;
  std::vector<BddRef> bdds;
  for (ExprRef e : exprs) bdds.push_back(mgr.from_expr(pool, e));
  for (std::size_t i = 0; i < exprs.size(); ++i) {
    const ExprRef back = mgr.to_expr(pool, bdds[i]);
    for (int mt = 0; mt < (1 << c.vars); ++mt) {
      auto assign = [&](BoolVar v) { return (mt >> v) & 1; };
      const bool expect = pool.eval(exprs[i], assign);
      ASSERT_EQ(mgr.eval(bdds[i], assign), expect) << "expression " << i << ", assignment " << mt;
      ASSERT_EQ(pool.eval(back, assign), expect) << "expression " << i << ", assignment " << mt;
    }
  }
  if (c.large) {
    EXPECT_GT(mgr.stats().ite_calls, 4096u);  // the computed table's starting size
    EXPECT_GT(mgr.num_nodes(), 2u + 4096u / 2);  // the unique table's first doubling
  }

  const std::size_t nodes = mgr.num_nodes();
  for (std::size_t i = 0; i < exprs.size(); ++i) {
    EXPECT_EQ(mgr.from_expr(pool, exprs[i]), bdds[i]) << "expression " << i;
  }
  EXPECT_EQ(mgr.num_nodes(), nodes);

  BddManager again;
  for (std::size_t i = 0; i < exprs.size(); ++i) {
    EXPECT_EQ(again.from_expr(pool, exprs[i]), bdds[i]) << "expression " << i;
  }
  EXPECT_EQ(again.num_nodes(), mgr.num_nodes());
}

std::vector<RandomBddCase> random_bdd_cases() {
  std::vector<RandomBddCase> cases;
  for (int seed = 0; seed < 25; ++seed) cases.push_back({seed, 6, 20, 1, false});
  for (int seed = 0; seed < 4; ++seed) cases.push_back({seed, 14, 160, 12, true});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddRandomProperty, ::testing::ValuesIn(random_bdd_cases()));

// An independent oracle for the node sequence: the textbook ROBDD with
// exact (never-evicting) unique and computed tables, written from the
// same definitions as BddManager (terminals 0 and 1, the ITE terminal
// cases, recursion on the top variable low branch first, no complement
// edges). Driving both with one operation sequence must yield the same
// node index for every result, however the manager's computed table
// collides and grows.
class ExactBdd {
 public:
  std::uint32_t var(BoolVar v) { return make(v, 0, 1); }
  std::uint32_t bnot(std::uint32_t f) { return ite(f, 0, 1); }
  std::uint32_t band(std::uint32_t f, std::uint32_t g) { return ite(f, g, 0); }
  std::uint32_t bor(std::uint32_t f, std::uint32_t g) { return ite(f, 1, g); }
  std::uint32_t bxor(std::uint32_t f, std::uint32_t g) { return ite(f, bnot(g), g); }
  std::uint32_t ite(std::uint32_t f, std::uint32_t g, std::uint32_t h) {
    if (f == 1) return g;
    if (f == 0) return h;
    if (g == h) return g;
    if (g == 1 && h == 0) return f;
    const std::array<std::uint32_t, 3> key{f, g, h};
    if (auto it = computed_.find(key); it != computed_.end()) return it->second;
    const BoolVar v = std::min({top(f), top(g), top(h)});
    const std::uint32_t lo = ite(cof(f, v, false), cof(g, v, false), cof(h, v, false));
    const std::uint32_t hi = ite(cof(f, v, true), cof(g, v, true), cof(h, v, true));
    const std::uint32_t r = make(v, lo, hi);
    computed_.emplace(key, r);
    return r;
  }
  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }

 private:
  struct Node {
    BoolVar var;
    std::uint32_t low, high;
  };
  static constexpr BoolVar kTerm = 0xFFFFFFFFu;
  BoolVar top(std::uint32_t f) const { return nodes_[f].var; }
  std::uint32_t cof(std::uint32_t f, BoolVar v, bool value) const {
    if (nodes_[f].var != v) return f;
    return value ? nodes_[f].high : nodes_[f].low;
  }
  std::uint32_t make(BoolVar v, std::uint32_t low, std::uint32_t high) {
    if (low == high) return low;
    const std::array<std::uint32_t, 3> key{v, low, high};
    if (auto it = unique_.find(key); it != unique_.end()) return it->second;
    const auto r = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back({v, low, high});
    unique_.emplace(key, r);
    return r;
  }
  std::vector<Node> nodes_{{kTerm, 0, 0}, {kTerm, 0, 0}};
  std::map<std::array<std::uint32_t, 3>, std::uint32_t> unique_, computed_;
};

TEST(BddNodeSequence, MatchesAnExactTableReference) {
  Rng rng(0xB0D);
  BddManager mgr;
  ExactBdd ref;
  std::vector<BddRef> got;
  std::vector<std::uint32_t> want;
  constexpr std::uint64_t kVars = 20;
  for (int step = 0; step < 3000; ++step) {
    const auto any = [&] { return rng.next_range(0, got.size() - 1); };
    const std::uint64_t op = got.size() < 3 ? 0 : rng.next_range(0, 5);
    if (op == 0) {
      const auto v = static_cast<BoolVar>(rng.next_range(0, kVars - 1));
      got.push_back(mgr.var(v));
      want.push_back(ref.var(v));
    } else if (op == 1) {
      const auto a = any();
      got.push_back(mgr.bnot(got[a]));
      want.push_back(ref.bnot(want[a]));
    } else if (op == 5) {
      const auto a = any(), b = any(), c = any();
      got.push_back(mgr.ite(got[a], got[b], got[c]));
      want.push_back(ref.ite(want[a], want[b], want[c]));
    } else {
      const auto a = any(), b = any();
      got.push_back(op == 2 ? mgr.band(got[a], got[b])
                            : op == 3 ? mgr.bor(got[a], got[b]) : mgr.bxor(got[a], got[b]));
      want.push_back(op == 2 ? ref.band(want[a], want[b])
                             : op == 3 ? ref.bor(want[a], want[b]) : ref.bxor(want[a], want[b]));
    }
    ASSERT_EQ(got.back().value(), want.back()) << "step " << step;
  }
  EXPECT_EQ(mgr.num_nodes(), ref.num_nodes());
  // The sequence must have exercised collisions and growth of both tables.
  EXPECT_GT(mgr.stats().ite_calls, 4u * 4096u);
  EXPECT_GT(mgr.num_nodes(), 4u * 4096u);
}

}  // namespace
}  // namespace opiso
