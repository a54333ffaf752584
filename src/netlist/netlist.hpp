#pragma once
// Word-level RTL netlist.
//
// The netlist is an arena of cells and nets addressed by strongly typed
// ids. Every net has exactly one driver (a cell output or a primary
// input cell) and an explicit fanout list of (cell, port) pins, because
// both the activation-function derivation (backward traversal, Sec. 3)
// and the multiplexing-function derivation (Sec. 4.1) walk the structure
// in both directions.
//
// Construction goes through the typed add_* helpers which enforce the
// per-kind pin-count and width rules at insertion time; validate()
// re-checks global invariants (single driver, acyclicity, width
// consistency) and is called by the simulator and the isolation engine
// before they trust a netlist.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "netlist/cell.hpp"
#include "support/strong_id.hpp"

namespace opiso {

struct CellTag;
struct NetTag;
using CellId = StrongId<CellTag>;
using NetId = StrongId<NetTag>;

/// A (consumer cell, input port index) pair: one fanout of a net.
struct Pin {
  CellId cell;
  int port = 0;
  friend bool operator==(const Pin&, const Pin&) = default;
};

struct Cell {
  CellKind kind = CellKind::Constant;
  std::string name;
  unsigned width = 1;           ///< width of the output (1 for comparators)
  std::uint64_t param = 0;      ///< Constant value or shift amount
  std::vector<NetId> ins;       ///< input nets, per-kind port order
  NetId out;                    ///< invalid for PrimaryOutput
};

struct Net {
  std::string name;
  unsigned width = 1;
  CellId driver;                ///< cell whose output drives this net
  std::vector<Pin> fanouts;
};

/// A construction rule that a new net or cell would break: the code a
/// design reader reports it under and a plain message.
struct BuildIssue {
  ErrCode code;
  std::string message;
};

class Netlist {
 public:
  Netlist() = default;
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  // -- access -------------------------------------------------------------
  [[nodiscard]] const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  [[nodiscard]] std::size_t num_cells() const { return cells_.size(); }
  [[nodiscard]] std::size_t num_nets() const { return nets_.size(); }

  [[nodiscard]] const Cell& cell(CellId id) const;
  [[nodiscard]] const Net& net(NetId id) const;

  [[nodiscard]] std::vector<CellId> cell_ids() const;
  [[nodiscard]] std::vector<NetId> net_ids() const;

  /// Primary inputs / outputs in insertion order.
  [[nodiscard]] const std::vector<CellId>& primary_inputs() const { return inputs_; }
  [[nodiscard]] const std::vector<CellId>& primary_outputs() const { return outputs_; }

  /// Find a net/cell by name; returns invalid id if absent.
  [[nodiscard]] NetId find_net(std::string_view name) const;
  [[nodiscard]] CellId find_cell(std::string_view name) const;

  // -- construction ---------------------------------------------------------
  /// The rule that add_net / add_cell with these arguments would break,
  /// or nothing. Design readers call these first, so a file that breaks
  /// a rule is rejected with the rule's code and its input line; the
  /// builders treat a broken rule as a caller bug (ErrCode::Internal).
  [[nodiscard]] std::optional<BuildIssue> net_issue(const std::string& name,
                                                    std::uint64_t width) const;
  [[nodiscard]] std::optional<BuildIssue> cell_issue(CellKind kind, const std::string& name,
                                                     const std::vector<NetId>& ins, NetId out,
                                                     std::uint64_t param = 0) const;

  /// Create a fresh net. Names must be unique and non-empty.
  NetId add_net(std::string name, unsigned width);

  /// Generic cell insertion; checks pin counts and width rules for `kind`
  /// (and that a Constant's value fits its net) and wires up fanout
  /// lists. Returns the new cell id.
  CellId add_cell(CellKind kind, std::string name, const std::vector<NetId>& ins, NetId out,
                  std::uint64_t param = 0);

  // Convenience builders. Each creates the output net `<name>` itself
  // (except add_output) and returns the output net id.
  NetId add_input(const std::string& name, unsigned width);
  CellId add_output(const std::string& name, NetId src);
  NetId add_const(const std::string& name, std::uint64_t value, unsigned width);
  NetId add_unop(CellKind kind, const std::string& name, NetId a);
  NetId add_binop(CellKind kind, const std::string& name, NetId a, NetId b);
  NetId add_shift(CellKind kind, const std::string& name, NetId a, unsigned amount);
  NetId add_mux2(const std::string& name, NetId sel, NetId a, NetId b);
  NetId add_reg(const std::string& name, NetId d, NetId en);
  NetId add_latch(const std::string& name, NetId d, NetId en);
  NetId add_iso(CellKind kind, const std::string& name, NetId d, NetId as);

  // -- surgery (used by the isolation transform) ----------------------------
  /// Reconnect input `port` of `consumer` from its current net to
  /// `new_net`, maintaining both fanout lists.
  void reconnect_input(CellId consumer, int port, NetId new_net);

  /// Generate a name not yet used by any net ("<base>", "<base>_1", ...).
  [[nodiscard]] std::string fresh_net_name(const std::string& base) const;
  [[nodiscard]] std::string fresh_cell_name(const std::string& base) const;

  /// Rename a net/cell (new name must be unique). Used by frontends to
  /// promote generated temporaries to user-visible signal names.
  void rename_net(NetId id, const std::string& new_name);
  void rename_cell(CellId id, const std::string& new_name);

  // -- invariants -----------------------------------------------------------
  /// Throws NetlistError on the first violated invariant.
  void validate() const;

  /// Output width the kind would produce from these input nets.
  [[nodiscard]] unsigned infer_width(CellKind kind, const std::vector<NetId>& ins) const;

 private:
  std::string name_;
  std::vector<Cell> cells_;
  std::vector<Net> nets_;
  std::vector<CellId> inputs_;
  std::vector<CellId> outputs_;
  std::unordered_map<std::string, NetId> net_by_name_;
  std::unordered_map<std::string, CellId> cell_by_name_;
};

/// True when `nl` holds level-sensitive state (a Latch or an IsoLatch).
[[nodiscard]] bool has_latches(const Netlist& nl);

}  // namespace opiso
