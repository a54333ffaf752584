#include "opt/egraph.hpp"

#include <string>
#include <utility>

#include "support/rng.hpp"
#include "util/error.hpp"

namespace opiso {

void EChildren::push_back(EClassId c) {
  OPISO_REQUIRE(arity_ < kCapacity, "egraph: an e-node has at most three children");
  ids_[arity_++] = c;
}

std::size_t ENodeHash::operator()(const ENode& n) const {
  // Every field, folded into three words (unused child slots are zero),
  // each through the SplitMix64 finalizer.
  const std::uint64_t head = std::uint64_t{n.width} << 16 |
                             std::uint64_t{static_cast<std::uint8_t>(n.kind)} << 8 |
                             n.children.size();
  const std::uint64_t kids01 = std::uint64_t{n.children[0]} << 32 | n.children[1];
  const std::uint64_t kid2 = std::uint64_t{n.children[2]} << 32 | head;
  return splitmix64(n.param ^ splitmix64(kids01 ^ splitmix64(kid2)));
}

EClassId EGraph::find(EClassId c) const {
  while (parent_[c] != c) c = parent_[c];
  return c;
}

ENode EGraph::canonical(ENode n) const {
  for (EClassId& ch : n.children) ch = find(ch);
  return n;
}

EClassId EGraph::add(ENode n) {
  n = canonical(n);
  const auto it = memo_.find(n);
  if (it != memo_.end()) return find(it->second);
  const EClassId id = static_cast<EClassId>(classes_.size());
  EClass cls;
  cls.width = n.width;
  cls.nodes.push_back(n);
  classes_.push_back(std::move(cls));
  parent_.push_back(id);
  memo_.emplace(n, id);
  ++total_nodes_;
  return id;
}

bool EGraph::merge(EClassId a, EClassId b) {
  a = find(a);
  b = find(b);
  if (a == b) return false;
  OPISO_REQUIRE(classes_[a].width == classes_[b].width,
                "egraph: refusing to merge classes of widths " +
                    std::to_string(classes_[a].width) + " and " +
                    std::to_string(classes_[b].width));
  // Smaller id wins: canonical ids are then independent of merge order
  // within a rebuild round, which keeps extraction deterministic.
  if (b < a) std::swap(a, b);
  EClass& win = classes_[a];
  EClass& lose = classes_[b];
  win.nodes.insert(win.nodes.end(), lose.nodes.begin(), lose.nodes.end());
  lose.nodes.clear();
  lose.nodes.shrink_to_fit();
  parent_[b] = a;
  dirty_.push_back(a);
  return true;
}

void EGraph::rebuild() {
  // Fixpoint congruence closure: "re-hashcons everything until no
  // merge happens", simple and trivially deterministic. optimize() runs
  // it on whole designs: `opiso optimize` of a 10001-cell ladder rung
  // (perfbench's seed-1 rung at 256 slices) takes 48 ms end to end
  // (Release build, 4-vCPU x86-64 VM). Merges are deferred to the end
  // of each scan — merging mid-scan would splice/clear the node vectors
  // being iterated.
  if (dirty_.empty()) return;
  std::unordered_map<ENode, EClassId, ENodeHash> fresh;
  std::vector<std::pair<EClassId, EClassId>> pending;
  bool changed = true;
  while (changed) {
    changed = false;
    fresh.clear();
    pending.clear();
    for (EClassId c = 0; c < classes_.size(); ++c) {
      if (find(c) != c) continue;
      for (const ENode& raw : classes_[c].nodes) {
        const auto [it, inserted] = fresh.emplace(canonical(raw), c);
        if (!inserted && find(it->second) != c) pending.emplace_back(it->second, c);
      }
    }
    for (const auto& [a, b] : pending) {
      if (merge(a, b)) changed = true;
    }
  }
  // Final pass: canonicalize stored nodes, drop duplicates (first
  // occurrence wins, preserving insertion order), refresh the memo. The
  // last scan merged nothing, so every canonical node belongs to one
  // class, and a node the memo already holds is a repeat within its own
  // class.
  memo_.clear();
  total_nodes_ = 0;
  for (EClassId c = 0; c < classes_.size(); ++c) {
    if (find(c) != c) continue;
    std::vector<ENode>& nodes = classes_[c].nodes;
    std::size_t kept = 0;
    for (const ENode& raw : nodes) {
      const ENode n = canonical(raw);
      if (memo_.emplace(n, c).second) nodes[kept++] = n;
    }
    nodes.resize(kept);
    total_nodes_ += kept;
  }
  dirty_.clear();
}

std::optional<std::uint64_t> EGraph::const_value(EClassId c) const {
  for (const ENode& n : classes_[find(c)].nodes) {
    if (n.kind == CellKind::Constant) return n.param;
  }
  return std::nullopt;
}

std::vector<EClassId> EGraph::class_ids() const {
  std::vector<EClassId> out;
  for (EClassId c = 0; c < classes_.size(); ++c) {
    if (find(c) == c) out.push_back(c);
  }
  return out;
}

std::size_t EGraph::num_classes() const {
  std::size_t n = 0;
  for (EClassId c = 0; c < classes_.size(); ++c) {
    if (find(c) == c) ++n;
  }
  return n;
}

}  // namespace opiso
