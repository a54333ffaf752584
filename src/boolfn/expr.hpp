#pragma once
// Hash-consed Boolean expression DAG.
//
// Activation functions (Sec. 3) and multiplexing functions (Sec. 4.1) are
// built structurally while traversing the netlist and are, by
// construction, in factored form — exactly the representation the paper's
// area model wants (literal count) and the representation the isolation
// transform synthesizes into gates. Variables are opaque 32-bit indices;
// the isolation engine maps them to 1-bit control nets.
//
// The pool applies local simplifications on construction (identity /
// annihilator / idempotence / complement rules and double negation), so
// the common derived functions like "S2·G1 + S1·¬S0·G0" come out
// minimal without a separate optimization pass. BDD-based simplification
// (boolfn/bdd.hpp) is available for the rest.

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/strong_id.hpp"
#include "util/error.hpp"

namespace opiso {

struct ExprTag;
using ExprRef = StrongId<ExprTag>;
using BoolVar = std::uint32_t;

enum class ExprOp : std::uint8_t { Const0, Const1, Var, Not, And, Or };

struct ExprNode {
  ExprOp op = ExprOp::Const0;
  BoolVar var = 0;   ///< for Var nodes
  ExprRef a;         ///< operand(s)
  ExprRef b;
};

class ExprPool {
 public:
  ExprPool();

  [[nodiscard]] ExprRef const0() const { return const0_; }
  [[nodiscard]] ExprRef const1() const { return const1_; }
  [[nodiscard]] ExprRef var(BoolVar v);
  [[nodiscard]] ExprRef lnot(ExprRef a);
  [[nodiscard]] ExprRef land(ExprRef a, ExprRef b);
  [[nodiscard]] ExprRef lor(ExprRef a, ExprRef b);
  /// a·b + ¬a·c (built from the primitives above).
  [[nodiscard]] ExprRef ite(ExprRef a, ExprRef b, ExprRef c);

  [[nodiscard]] const ExprNode& node(ExprRef r) const;
  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }

  [[nodiscard]] bool is_const0(ExprRef r) const { return r == const0_; }
  [[nodiscard]] bool is_const1(ExprRef r) const { return r == const1_; }

  /// Evaluate under an assignment (callback: var -> bool).
  [[nodiscard]] bool eval(ExprRef r, const std::function<bool(BoolVar)>& value) const;

  /// Distinct variables appearing in the expression (sorted).
  [[nodiscard]] std::vector<BoolVar> support(ExprRef r) const;

  /// Literal count of the factored form. Shared subexpressions are
  /// counted once — this matches the gate count of the synthesized
  /// activation logic, which shares common subterms.
  [[nodiscard]] std::size_t literal_count(ExprRef r) const;

  /// Number of distinct non-leaf nodes (≈ gates after synthesis).
  [[nodiscard]] std::size_t gate_count(ExprRef r) const;

  /// Substitute: replace variable v with expression e.
  [[nodiscard]] ExprRef substitute(ExprRef r, BoolVar v, ExprRef e);

  /// Render with a variable namer ("(S2 & G1) | (S1 & !S0 & G0)").
  [[nodiscard]] std::string to_string(ExprRef r,
                                      const std::function<std::string(BoolVar)>& name) const;
  [[nodiscard]] std::string to_string(ExprRef r) const;

 private:
  struct Key {
    ExprOp op;
    std::uint32_t var;
    std::uint32_t a;
    std::uint32_t b;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::size_t h = static_cast<std::size_t>(k.op);
      h = h * 1000003u ^ k.var;
      h = h * 1000003u ^ k.a;
      h = h * 1000003u ^ k.b;
      return h;
    }
  };

  ExprRef intern(ExprOp op, BoolVar var, ExprRef a, ExprRef b);

  std::vector<ExprNode> nodes_;
  std::unordered_map<Key, ExprRef, KeyHash> unique_;
  ExprRef const0_;
  ExprRef const1_;
};

}  // namespace opiso
