#pragma once
// E-graph over the word-level netlist (equality saturation substrate).
//
// Coward et al. ("Automatic Datapath Optimization using E-Graphs",
// PAPERS.md) showed that datapath rewriting wants an e-graph: a single
// structure holding *every* equivalent form reached by the rule set, so
// extraction can pick the variant with the best cost after the fact
// instead of committing greedily. This implementation keeps the classic
// shape — hashcons + union-find + congruence rebuild — and keeps every
// result a pure function of insertion history:
//
//   * e-nodes are flat values — kind, param, width and at most three
//     child e-classes inline — hashconsed through hash tables that are
//     only ever looked up, never iterated, so no order depends on a
//     hash or a pointer value;
//   * class ids come from insertion order, and class_ids() and nodes()
//     scan vectors;
//   * union-find always keeps the smaller class id as the canonical
//     representative, so canonical ids are stable across runs;
//   * per-class node lists preserve first-insertion order.
//
// Leaves (primary inputs, register/latch outputs) are opaque e-nodes
// whose `param` is the original NetId — the rewriter never looks through
// the sequential boundary. Constants are keyed by (value, width) so
// equal constants share a class and constant folding is a merge.
//
// Widths are first-class: every e-node carries the inferred output
// width of its operator (cell_kind_width, the netlist's own rule), and
// merge() refuses to union classes of different widths. Word-level
// rewrites that change an intermediate width are therefore impossible
// to express by accident — the rule set must introduce an explicit
// zero-extension (Or with a wide zero constant) instead.

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "netlist/netlist.hpp"

namespace opiso {

/// Index of an equivalence class. Not a StrongId: classes are merged and
/// re-canonicalized constantly, and the raw index arithmetic stays local
/// to this module.
using EClassId = std::uint32_t;

/// The child classes of one e-node, held inline behind an arity. Mux2 is
/// the widest operator the e-graph sees, so three slots suffice and a
/// fourth child is an Error. Unused slots stay zero, so equality and
/// hashing may read every slot.
class EChildren {
 public:
  static constexpr std::size_t kCapacity = 3;

  EChildren() = default;
  EChildren(std::initializer_list<EClassId> ids) {
    for (EClassId c : ids) push_back(c);
  }

  void push_back(EClassId c);

  [[nodiscard]] std::size_t size() const { return arity_; }
  [[nodiscard]] bool empty() const { return arity_ == 0; }
  [[nodiscard]] EClassId operator[](std::size_t i) const { return ids_[i]; }
  [[nodiscard]] EClassId* begin() { return ids_.data(); }
  [[nodiscard]] EClassId* end() { return ids_.data() + arity_; }
  [[nodiscard]] const EClassId* begin() const { return ids_.data(); }
  [[nodiscard]] const EClassId* end() const { return ids_.data() + arity_; }

  [[nodiscard]] bool operator==(const EChildren&) const = default;

 private:
  std::array<EClassId, kCapacity> ids_{};
  std::uint8_t arity_ = 0;
};

/// One operator application over e-classes. For leaf kinds
/// (PrimaryInput / Reg / Latch / IsoLatch) `param` holds the original
/// NetId value and `children` is empty; for Constant `param` is the
/// value; for Shl/Shr it is the shift amount.
struct ENode {
  CellKind kind = CellKind::Constant;
  unsigned width = 1;
  std::uint64_t param = 0;
  EChildren children;

  [[nodiscard]] bool operator==(const ENode&) const = default;
};

static_assert(std::is_trivially_copyable_v<ENode>, "e-nodes are copied, never allocated");

/// Hash over every field of an e-node.
struct ENodeHash {
  [[nodiscard]] std::size_t operator()(const ENode& n) const;
};

class EGraph {
 public:
  /// Hashcons `n` (children are canonicalized first): returns the
  /// existing class if an identical canonical node is known, otherwise
  /// allocates a fresh class. Never merges.
  EClassId add(ENode n);

  /// Canonical representative of `c`.
  [[nodiscard]] EClassId find(EClassId c) const;

  /// Union two classes; the smaller canonical id wins. Returns true if
  /// the classes were distinct. Throws NetlistError on width mismatch —
  /// a rule produced an unsound rewrite.
  bool merge(EClassId a, EClassId b);

  /// Restore the congruence invariant after a batch of merges: nodes
  /// whose children became equal are re-hashconsed, and classes that now
  /// share a node are merged, to a fixpoint.
  void rebuild();

  [[nodiscard]] unsigned width(EClassId c) const { return classes_[find(c)].width; }

  /// Nodes of the canonical class, in first-insertion order.
  [[nodiscard]] const std::vector<ENode>& nodes(EClassId c) const {
    return classes_[find(c)].nodes;
  }

  /// If the class contains a Constant node, its value.
  [[nodiscard]] std::optional<std::uint64_t> const_value(EClassId c) const;

  /// Canonical class ids, ascending. Deterministic.
  [[nodiscard]] std::vector<EClassId> class_ids() const;

  /// Live (canonical) class count / total stored e-node count.
  [[nodiscard]] std::size_t num_classes() const;
  [[nodiscard]] std::size_t num_nodes() const { return total_nodes_; }

 private:
  struct EClass {
    unsigned width = 1;
    std::vector<ENode> nodes;  ///< canonical-form nodes, insertion order
  };

  [[nodiscard]] ENode canonical(ENode n) const;

  std::vector<EClass> classes_;
  std::vector<EClassId> parent_;  ///< union-find forest
  std::unordered_map<ENode, EClassId, ENodeHash> memo_;  ///< canonical node -> class (hashcons)
  std::vector<EClassId> dirty_;   ///< classes touched since last rebuild
  std::size_t total_nodes_ = 0;
};

}  // namespace opiso
