#include "boolfn/bdd.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "obs/metrics.hpp"

namespace opiso {

namespace {

/// Hash of a (var, low, high) or (f, g, h) triple: the three words
/// folded into 64 bits, then the SplitMix64 finalizer, so every input
/// bit reaches the low bits that pick a slot.
std::uint64_t hash3(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
  std::uint64_t x = (std::uint64_t{b} << 32 | c) + std::uint64_t{a} * 0x9E3779B97F4A7C15ull;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

}  // namespace

BddManager::BddManager(BddBudget budget)
    : budget_(budget), unique_(kInitialTableSize, 0), cache_(kInitialTableSize) {
  // Terminals occupy slots 0 (zero) and 1 (one) with a sentinel var so
  // that every internal node's var compares smaller.
  nodes_.push_back(Node{kTermVar, BddRef::invalid(), BddRef::invalid()});
  nodes_.push_back(Node{kTermVar, BddRef::invalid(), BddRef::invalid()});
  zero_ = BddRef{0};
  one_ = BddRef{1};
}

BddManager::~BddManager() {
  obs::MetricsRegistry& m = obs::metrics();
  m.counter("bdd.managers").add(1);
  m.counter("bdd.nodes_allocated").add(nodes_.size() - 2);  // minus terminals
  m.counter("bdd.unique_hits").add(stats_.unique_hits);
  m.counter("bdd.unique_misses").add(stats_.unique_misses);
  m.counter("bdd.ite_calls").add(stats_.ite_calls);
  m.counter("bdd.ite_cache_hits").add(stats_.ite_cache_hits);
  m.histogram("bdd.manager_nodes").record(static_cast<double>(nodes_.size()));
}

std::size_t BddManager::cache_slot(std::uint32_t f, std::uint32_t g, std::uint32_t h) const {
  return hash3(f, g, h) & (cache_.size() - 1);
}

BddRef BddManager::make_node(BoolVar var, BddRef low, BddRef high) {
  if (low == high) return low;  // reduction rule
  const std::size_t mask = unique_.size() - 1;
  std::size_t slot = hash3(var, low.value(), high.value()) & mask;
  for (std::uint32_t i; (i = unique_[slot]) != 0; slot = (slot + 1) & mask) {
    const Node& n = nodes_[i];
    if (n.var == var && n.low == low && n.high == high) {
      ++stats_.unique_hits;
      return BddRef{i};
    }
  }
  if (budget_.max_nodes != 0 && nodes_.size() >= budget_.max_nodes) {
    obs::metrics().counter("bdd.budget_exceeded").add(1);
    throw ResourceError(ErrCode::ResourceBddNodes,
                        "BDD node budget of " + std::to_string(budget_.max_nodes) +
                            " nodes exceeded");
  }
  ++stats_.unique_misses;
  const auto index = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(Node{var, low, high});
  unique_[slot] = index;
  if (2 * (nodes_.size() - 2) > unique_.size()) grow_tables();
  return BddRef{index};
}

void BddManager::grow_tables() {
  std::vector<std::uint32_t> unique(2 * unique_.size(), 0);
  const std::size_t mask = unique.size() - 1;
  for (std::uint32_t i = 2; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    std::size_t slot = hash3(n.var, n.low.value(), n.high.value()) & mask;
    while (unique[slot] != 0) slot = (slot + 1) & mask;
    unique[slot] = i;
  }
  unique_.swap(unique);

  if (cache_.size() >= kMaxCacheEntries) return;
  std::vector<CacheEntry> old(2 * cache_.size());
  cache_.swap(old);
  for (const CacheEntry& e : old) {
    if (e.f != 0) cache_[cache_slot(e.f, e.g, e.h)] = e;
  }
}

BddRef BddManager::var(BoolVar v) { return make_node(v, zero_, one_); }
BddRef BddManager::nvar(BoolVar v) { return make_node(v, one_, zero_); }

BoolVar BddManager::top_var(BddRef f, BddRef g, BddRef h) const {
  BoolVar top = kTermVar;
  for (BddRef r : {f, g, h}) {
    if (r.valid() && nodes_[r.value()].var < top) top = nodes_[r.value()].var;
  }
  return top;
}

BddRef BddManager::cofactor(BddRef f, BoolVar v, bool value) const {
  const Node& n = nodes_[f.value()];
  if (n.var != v) return f;  // f does not depend on v at the top
  return value ? n.high : n.low;
}

BddRef BddManager::ite(BddRef f, BddRef g, BddRef h) {
  // Terminal cases.
  if (is_one(f)) return g;
  if (is_zero(f)) return h;
  if (g == h) return g;
  if (is_one(g) && is_zero(h)) return f;

  ++stats_.ite_calls;
  if (const CacheEntry& e = cache_[cache_slot(f.value(), g.value(), h.value())];
      e.f == f.value() && e.g == g.value() && e.h == h.value()) {
    ++stats_.ite_cache_hits;
    return BddRef{e.result};
  }

  const BoolVar v = top_var(f, g, h);
  BddRef lo = ite(cofactor(f, v, false), cofactor(g, v, false), cofactor(h, v, false));
  BddRef hi = ite(cofactor(f, v, true), cofactor(g, v, true), cofactor(h, v, true));
  BddRef result = make_node(v, lo, hi);
  if (budget_.max_ite_cache != 0 && cache_inserts_ >= budget_.max_ite_cache) {
    obs::metrics().counter("bdd.budget_exceeded").add(1);
    throw ResourceError(ErrCode::ResourceIteCache,
                        "BDD ITE cache budget of " + std::to_string(budget_.max_ite_cache) +
                            " entries exceeded");
  }
  ++cache_inserts_;
  // The recursive calls may have grown the table: look the slot up again.
  cache_[cache_slot(f.value(), g.value(), h.value())] =
      CacheEntry{f.value(), g.value(), h.value(), result.value()};
  return result;
}

BddRef BddManager::bnot(BddRef f) { return ite(f, zero_, one_); }
BddRef BddManager::band(BddRef f, BddRef g) { return ite(f, g, zero_); }
BddRef BddManager::bor(BddRef f, BddRef g) { return ite(f, one_, g); }
BddRef BddManager::bxor(BddRef f, BddRef g) { return ite(f, bnot(g), g); }

BddRef BddManager::restrict_var(BddRef f, BoolVar v, bool value) {
  if (is_zero(f) || is_one(f)) return f;
  const Node n = nodes_[f.value()];
  if (n.var > v || n.var == kTermVar) return f;
  if (n.var == v) return value ? n.high : n.low;
  BddRef lo = restrict_var(n.low, v, value);
  BddRef hi = restrict_var(n.high, v, value);
  return make_node(n.var, lo, hi);
}

BddRef BddManager::exists(BddRef f, BoolVar v) {
  return bor(restrict_var(f, v, false), restrict_var(f, v, true));
}

bool BddManager::implies(BddRef f, BddRef g) { return is_one(ite(f, g, one_)); }

BddRef BddManager::restrict_to_care(BddRef f, BddRef care) {
  if (is_zero(care)) return zero();  // fully don't-care: any function
  if (is_one(care) || is_zero(f) || is_one(f)) return f;
  const BoolVar v = top_var(f, care, care);
  const BddRef c0 = cofactor(care, v, false);
  const BddRef c1 = cofactor(care, v, true);
  // Sibling substitution: if one branch of the care set is empty, the
  // function can collapse onto the other branch.
  if (is_zero(c0)) return restrict_to_care(cofactor(f, v, true), c1);
  if (is_zero(c1)) return restrict_to_care(cofactor(f, v, false), c0);
  if (nodes_[f.value()].var != v) {
    // f does not depend on v at the top: merge the care branches.
    return restrict_to_care(f, bor(c0, c1));
  }
  return make_node(v, restrict_to_care(cofactor(f, v, false), c0),
                   restrict_to_care(cofactor(f, v, true), c1));
}

bool BddManager::eval(BddRef f, const std::function<bool(BoolVar)>& value) const {
  while (!is_zero(f) && !is_one(f)) {
    const Node& n = nodes_[f.value()];
    f = value(n.var) ? n.high : n.low;
  }
  return is_one(f);
}

double BddManager::probability(BddRef f, const std::function<double(BoolVar)>& p) {
  std::unordered_map<std::uint32_t, double> memo;
  std::function<double(BddRef)> go = [&](BddRef r) -> double {
    if (is_zero(r)) return 0.0;
    if (is_one(r)) return 1.0;
    if (auto it = memo.find(r.value()); it != memo.end()) return it->second;
    const Node& n = nodes_[r.value()];
    const double pv = p(n.var);
    const double result = pv * go(n.high) + (1.0 - pv) * go(n.low);
    memo.emplace(r.value(), result);
    return result;
  };
  return go(f);
}

std::vector<BoolVar> BddManager::support(BddRef f) const {
  std::unordered_set<std::uint32_t> seen;
  std::vector<BoolVar> vars;
  std::vector<BddRef> stack{f};
  while (!stack.empty()) {
    BddRef cur = stack.back();
    stack.pop_back();
    if (is_zero(cur) || is_one(cur)) continue;
    if (!seen.insert(cur.value()).second) continue;
    const Node& n = nodes_[cur.value()];
    vars.push_back(n.var);
    stack.push_back(n.low);
    stack.push_back(n.high);
  }
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  return vars;
}

std::size_t BddManager::size(BddRef f) const {
  std::unordered_set<std::uint32_t> seen;
  std::vector<BddRef> stack{f};
  std::size_t count = 0;
  while (!stack.empty()) {
    BddRef cur = stack.back();
    stack.pop_back();
    if (is_zero(cur) || is_one(cur)) continue;
    if (!seen.insert(cur.value()).second) continue;
    ++count;
    const Node& n = nodes_[cur.value()];
    stack.push_back(n.low);
    stack.push_back(n.high);
  }
  return count;
}

BddRef BddManager::from_expr(const ExprPool& pool, ExprRef e,
                             const std::function<BddRef(BoolVar)>& var_bdd) {
  // Post-order over an explicit stack. An And/Or pushes b above a, so
  // b's operand is built first: the operations, and the order in which
  // var_bdd sees the variables, are fixed.
  std::unordered_map<std::uint32_t, BddRef> memo;
  std::vector<ExprRef> stack{e};
  while (!stack.empty()) {
    const ExprRef r = stack.back();
    if (memo.count(r.value()) != 0) {
      stack.pop_back();
      continue;
    }
    const ExprNode& n = pool.node(r);
    BddRef result;
    switch (n.op) {
      case ExprOp::Const0:
        result = zero_;
        break;
      case ExprOp::Const1:
        result = one_;
        break;
      case ExprOp::Var:
        result = var_bdd ? var_bdd(n.var) : var(n.var);
        break;
      case ExprOp::Not: {
        const auto a = memo.find(n.a.value());
        if (a == memo.end()) {
          stack.push_back(n.a);
          continue;
        }
        result = bnot(a->second);
        break;
      }
      case ExprOp::And:
      case ExprOp::Or: {
        const auto a = memo.find(n.a.value());
        const auto b = memo.find(n.b.value());
        if (a == memo.end() || b == memo.end()) {
          if (a == memo.end()) stack.push_back(n.a);
          if (b == memo.end()) stack.push_back(n.b);
          continue;
        }
        result = n.op == ExprOp::And ? band(a->second, b->second) : bor(a->second, b->second);
        break;
      }
    }
    memo.emplace(r.value(), result);
    stack.pop_back();
  }
  return memo.at(e.value());
}

ExprRef BddManager::to_expr(ExprPool& pool, BddRef f) {
  std::unordered_map<std::uint32_t, ExprRef> memo;
  std::function<ExprRef(BddRef)> go = [&](BddRef r) -> ExprRef {
    if (is_zero(r)) return pool.const0();
    if (is_one(r)) return pool.const1();
    if (auto it = memo.find(r.value()); it != memo.end()) return it->second;
    const Node n = nodes_[r.value()];
    ExprRef v = pool.var(n.var);
    ExprRef lo = go(n.low);
    ExprRef hi = go(n.high);
    // Shannon expansion with the common special cases folded so simple
    // functions come back in their natural factored form.
    ExprRef result;
    if (pool.is_const0(lo)) {
      result = pool.land(v, hi);
    } else if (pool.is_const1(lo)) {
      result = pool.lor(pool.lnot(v), pool.land(v, hi));
      if (pool.is_const1(hi)) result = pool.const1();
      if (pool.is_const0(hi)) result = pool.lnot(v);
    } else if (pool.is_const0(hi)) {
      result = pool.land(pool.lnot(v), lo);
    } else if (pool.is_const1(hi)) {
      result = pool.lor(v, lo);
    } else {
      result = pool.lor(pool.land(v, hi), pool.land(pool.lnot(v), lo));
    }
    memo.emplace(r.value(), result);
    return result;
  };
  return go(f);
}

ExprRef BddManager::simplify_expr(ExprPool& pool, ExprRef e) {
  const ExprRef resynth = to_expr(pool, from_expr(pool, e));
  return pool.literal_count(resynth) < pool.literal_count(e) ? resynth : e;
}

}  // namespace opiso
