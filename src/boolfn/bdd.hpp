#pragma once
// Reduced Ordered Binary Decision Diagrams.
//
// BDDs give the canonical view of the structurally derived activation
// functions: tautology detection (f ≡ 1 ⇒ the module is never redundant
// and must not be isolated), constant-0 detection, equivalence checks in
// tests, and don't-care-free simplification (bdd_to_expr re-synthesizes
// a compact factored form via Shannon decomposition). Probabilities used
// by the savings model are *measured* in simulation, but the
// independence-based probability here is useful for sanity checks and
// as the stimulus-design tool for the activation-statistics sweep.
//
// Classic implementation: node arena with a unique table, ITE with a
// computed cache, variable order = ascending BoolVar index. No
// complement edges and no garbage collection: a node, once made, keeps
// its index for the manager's lifetime.
//
// Both tables are flat arrays. The unique table is open-addressed with
// linear probing over node indices (0 marks an empty slot; terminals
// never enter it) and doubles, rebuilt from the arena, when it is more
// than half full. The computed table is direct-mapped and lossy: an
// insert overwrites whatever shared its slot. It starts at the unique
// table's size, doubles with it up to kMaxCacheEntries and stays there.
//
// Node indices do not depend on the computed table. A lost entry is
// recomputed, and every node that recomputation reaches already exists
// (it was made when the entry was first computed), so make_node finds
// it instead of creating one. New nodes are therefore created in the
// same order as with an exact cache: every BddRef, num_nodes() and the
// node at which BddBudget::max_nodes throws depend only on the calls
// made, never on the table sizes.

#include <cstdint>
#include <functional>
#include <vector>

#include "boolfn/expr.hpp"
#include "support/strong_id.hpp"
#include "util/error.hpp"

namespace opiso {

struct BddTag;
using BddRef = StrongId<BddTag>;

/// Resource budget for a BddManager. Zero means unlimited. Exceeding a
/// budget throws ResourceError (codes resource.bdd-nodes /
/// resource.ite-cache); the manager stays consistent, so callers can
/// catch and degrade to the structural expression path (the classic
/// answer to BDD blow-up on activation-function derivation).
struct BddBudget {
  std::size_t max_nodes = 0;  ///< unique-table node cap (incl. terminals)
  /// Cap on computed-table insertions. The table is lossy, so a key
  /// evicted and computed again is inserted again and counts twice.
  std::size_t max_ite_cache = 0;
};

class BddManager {
 public:
  explicit BddManager(BddBudget budget = {});
  /// Flushes the accumulated work counters into the global metrics
  /// registry (obs) — per-manager stats stay cheap plain members so the
  /// unique-table/ITE hot paths never touch shared state — and records
  /// this manager's node count (terminals included) as one sample of
  /// the `bdd.manager_nodes` histogram, whose max is the largest
  /// manager of the run.
  ~BddManager();

  /// Work counters of this manager (unique-table and ITE-cache hit
  /// rates are the classic health indicators of a BDD workload).
  struct Stats {
    std::uint64_t unique_hits = 0;    ///< make_node found an existing node
    std::uint64_t unique_misses = 0;  ///< make_node allocated a new node
    std::uint64_t ite_calls = 0;      ///< non-terminal ITE invocations
    std::uint64_t ite_cache_hits = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const BddBudget& budget() const { return budget_; }

  [[nodiscard]] BddRef zero() const { return zero_; }
  [[nodiscard]] BddRef one() const { return one_; }
  [[nodiscard]] BddRef var(BoolVar v);
  [[nodiscard]] BddRef nvar(BoolVar v);

  [[nodiscard]] BddRef bnot(BddRef f);
  [[nodiscard]] BddRef band(BddRef f, BddRef g);
  [[nodiscard]] BddRef bor(BddRef f, BddRef g);
  [[nodiscard]] BddRef bxor(BddRef f, BddRef g);
  [[nodiscard]] BddRef ite(BddRef f, BddRef g, BddRef h);

  /// Cofactor with respect to v = value.
  [[nodiscard]] BddRef restrict_var(BddRef f, BoolVar v, bool value);
  /// ∃v. f
  [[nodiscard]] BddRef exists(BddRef f, BoolVar v);

  /// Coudert–Madre restrict: returns g with g∧care = f∧care, using the
  /// don't-care space ¬care to (heuristically) shrink the BDD. Used for
  /// reachability-don't-care minimization of activation logic.
  [[nodiscard]] BddRef restrict_to_care(BddRef f, BddRef care);

  [[nodiscard]] bool is_zero(BddRef f) const { return f == zero_; }
  [[nodiscard]] bool is_one(BddRef f) const { return f == one_; }
  /// Canonical, so equivalence is pointer equality.
  [[nodiscard]] bool equal(BddRef f, BddRef g) const { return f == g; }
  [[nodiscard]] bool implies(BddRef f, BddRef g);

  [[nodiscard]] bool eval(BddRef f, const std::function<bool(BoolVar)>& value) const;

  /// Pr[f = 1] assuming independent variables with Pr[v = 1] = p(v).
  [[nodiscard]] double probability(BddRef f, const std::function<double(BoolVar)>& p);

  [[nodiscard]] std::vector<BoolVar> support(BddRef f) const;
  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }
  /// Distinct internal nodes reachable from f (BDD size).
  [[nodiscard]] std::size_t size(BddRef f) const;

  /// Build a BDD from an expression. A variable v becomes var_bdd(v),
  /// or var(v) without one. An And/Or builds its b operand before a, so
  /// a var_bdd with side effects sees the variables in a fixed order.
  [[nodiscard]] BddRef from_expr(const ExprPool& pool, ExprRef e,
                                 const std::function<BddRef(BoolVar)>& var_bdd = nullptr);

  /// Re-synthesize an expression (factored form via Shannon expansion
  /// with memoization). Result is logically equivalent to f.
  [[nodiscard]] ExprRef to_expr(ExprPool& pool, BddRef f);

  /// Canonical simplification: BDD round trip, keeping whichever of the
  /// original and the re-synthesized factored form has fewer literals.
  /// This is the "optimized version" of the activation logic Sec. 3
  /// alludes to — structural derivation can accumulate redundant terms
  /// that the canonical form collapses.
  [[nodiscard]] ExprRef simplify_expr(ExprPool& pool, ExprRef e);

 private:
  struct Node {
    BoolVar var;
    BddRef low;   ///< cofactor var = 0
    BddRef high;  ///< cofactor var = 1
  };

  BddRef make_node(BoolVar var, BddRef low, BddRef high);
  /// Doubles the unique table (rebuilt from nodes_) and, below its cap,
  /// the computed table (entries re-inserted).
  void grow_tables();
  [[nodiscard]] BoolVar top_var(BddRef f, BddRef g, BddRef h) const;
  [[nodiscard]] BddRef cofactor(BddRef f, BoolVar v, bool value) const;

  static constexpr BoolVar kTermVar = 0xFFFFFFFFu;
  static constexpr std::size_t kInitialTableSize = 4096;
  /// 2^18 entries of 16 bytes: 4 MB.
  static constexpr std::size_t kMaxCacheEntries = std::size_t{1} << 18;

  /// One computed-table entry: ite(f, g, h) = result. f is never a
  /// terminal (ite returns before the lookup), so f == 0 marks a slot
  /// that was never written.
  struct CacheEntry {
    std::uint32_t f = 0, g = 0, h = 0, result = 0;
  };
  [[nodiscard]] std::size_t cache_slot(std::uint32_t f, std::uint32_t g, std::uint32_t h) const;

  Stats stats_;
  BddBudget budget_;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> unique_;  ///< node index per slot; 0 = empty
  std::vector<CacheEntry> cache_;
  std::uint64_t cache_inserts_ = 0;    ///< checked against max_ite_cache
  BddRef zero_;
  BddRef one_;
};

}  // namespace opiso
