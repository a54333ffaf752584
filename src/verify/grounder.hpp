#pragma once
// Net BDDs over caller-chosen leaves: the one way the checkers map the
// nets of a netlist to Boolean functions.
//
// NetGrounder builds the BDD of a 1-bit net on demand. From the net it
// walks back through the drivers until the caller's leaf rule stops it;
// a constant folds to a terminal, and every other driver combines its
// input pins' BDDs through the one-bit cell rule (at one bit Add and Sub
// are Xor, Eq is Xnor and Lt is !a & b). Only the nets a query reads are
// built. verify::equiv grounds each lowered design at its primary-input
// and register bits; lint grounds at every net that is not 1-bit control
// logic, so the synthesized AS logic and the derived observability
// function meet in one variable space.

#include <functional>
#include <optional>
#include <vector>

#include "boolfn/bdd.hpp"
#include "netlist/netlist.hpp"

namespace opiso {

class NetGrounder {
 public:
  /// The BDD of `net` where grounding stops, or nullopt to expand its
  /// `driver`. Never called for a constant; a nullopt answer must not
  /// change state, because it is asked again once the inputs are built.
  using Leaf = std::function<std::optional<BddRef>(NetId net, const Cell& driver)>;

  /// `nl` must be acyclic (validated); it and `mgr` must outlive the
  /// grounder.
  NetGrounder(const Netlist& nl, BddManager& mgr, Leaf leaf);

  /// BDD of `net`, memoised per net. Throws NetlistError when an
  /// expanded driver has no one-bit rule, and ResourceError when the
  /// manager's budget runs out; what was built stays memoised.
  [[nodiscard]] BddRef of_net(NetId net);

 private:
  const Netlist& nl_;
  BddManager& mgr_;
  Leaf leaf_;
  std::vector<BddRef> memo_;  ///< per net: its BDD, or invalid until grounded
};

}  // namespace opiso
