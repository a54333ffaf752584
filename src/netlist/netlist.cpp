#include "netlist/netlist.hpp"

#include <algorithm>
#include <array>

#include "netlist/traversal.hpp"

namespace opiso {

const Cell& Netlist::cell(CellId id) const {
  OPISO_REQUIRE(id.valid() && id.value() < cells_.size(), "invalid cell id");
  return cells_[id.value()];
}

const Net& Netlist::net(NetId id) const {
  OPISO_REQUIRE(id.valid() && id.value() < nets_.size(), "invalid net id");
  return nets_[id.value()];
}

std::vector<CellId> Netlist::cell_ids() const {
  std::vector<CellId> ids;
  ids.reserve(cells_.size());
  for (std::uint32_t i = 0; i < cells_.size(); ++i) ids.emplace_back(i);
  return ids;
}

std::vector<NetId> Netlist::net_ids() const {
  std::vector<NetId> ids;
  ids.reserve(nets_.size());
  for (std::uint32_t i = 0; i < nets_.size(); ++i) ids.emplace_back(i);
  return ids;
}

NetId Netlist::find_net(std::string_view name) const {
  auto it = net_by_name_.find(std::string(name));
  return it == net_by_name_.end() ? NetId::invalid() : it->second;
}

CellId Netlist::find_cell(std::string_view name) const {
  auto it = cell_by_name_.find(std::string(name));
  return it == cell_by_name_.end() ? CellId::invalid() : it->second;
}

std::optional<BuildIssue> Netlist::net_issue(const std::string& name,
                                             std::uint64_t width) const {
  if (name.empty()) return BuildIssue{ErrCode::ParseSyntax, "net name must be non-empty"};
  if (width < 1 || width > 64) {
    return BuildIssue{ErrCode::ParseWidth,
                      "width " + std::to_string(width) + " out of range [1,64]"};
  }
  if (net_by_name_.contains(name)) {
    return BuildIssue{ErrCode::ParseDuplicate, "duplicate net name: " + name};
  }
  return std::nullopt;
}

NetId Netlist::add_net(std::string name, unsigned width) {
  const std::optional<BuildIssue> issue = net_issue(name, width);
  OPISO_REQUIRE(!issue, issue->message);
  NetId id{static_cast<std::uint32_t>(nets_.size())};
  Net n;
  n.name = name;
  n.width = width;
  nets_.push_back(std::move(n));
  net_by_name_.emplace(std::move(name), id);
  return id;
}

unsigned Netlist::infer_width(CellKind kind, const std::vector<NetId>& ins) const {
  OPISO_REQUIRE(ins.size() <= 3, "infer_width: no cell kind has more than 3 inputs");
  std::array<unsigned, 3> widths{};
  for (std::size_t i = 0; i < ins.size(); ++i) widths[i] = net(ins[i]).width;
  return cell_kind_width(kind, std::span<const unsigned>(widths.data(), ins.size()));
}

std::optional<BuildIssue> Netlist::cell_issue(CellKind kind, const std::string& name,
                                              const std::vector<NetId>& ins, NetId out,
                                              std::uint64_t param) const {
  if (name.empty()) return BuildIssue{ErrCode::ParseSyntax, "cell name must be non-empty"};
  if (cell_by_name_.contains(name)) {
    return BuildIssue{ErrCode::ParseDuplicate, "duplicate cell name: " + name};
  }
  // The message names the cell; it is built only for a broken rule.
  const auto broken = [&](ErrCode code, const std::string& what) {
    return BuildIssue{code,
                      "cell '" + name + "' (" + std::string(cell_kind_name(kind)) + ")" + what};
  };
  const int want = cell_kind_num_inputs(kind);
  if (static_cast<int>(ins.size()) != want) {
    return broken(ErrCode::ParseSyntax, " needs " + std::to_string(want) + " inputs, got " +
                                            std::to_string(ins.size()));
  }
  for (NetId in : ins) {
    if (!in.valid() || in.value() >= nets_.size()) {
      return broken(ErrCode::ParseSyntax, " references an invalid input net");
    }
  }
  if (!cell_kind_has_output(kind)) {
    if (out.valid()) return broken(ErrCode::ParseSyntax, " takes no output net");
    return std::nullopt;
  }
  if (!out.valid() || out.value() >= nets_.size()) {
    return broken(ErrCode::ParseSyntax, " references an invalid output net");
  }
  const Net& onet = nets_[out.value()];
  if (onet.driver.valid()) {
    return BuildIssue{ErrCode::ParseDuplicate, "net '" + onet.name + "' already has a driver"};
  }
  // Per-kind width rules on 1-bit control pins.
  int control = -1;
  switch (kind) {
    case CellKind::Mux2:
      control = 0;
      break;
    case CellKind::Reg:
    case CellKind::Latch:
    case CellKind::IsoAnd:
    case CellKind::IsoOr:
    case CellKind::IsoLatch:
      control = 1;
      break;
    default:
      break;
  }
  if (control >= 0 && nets_[ins[static_cast<std::size_t>(control)].value()].width != 1) {
    return broken(ErrCode::ParseWidth,
                  ": port " + std::string(cell_port_name(kind, control)) + " must be 1 bit wide");
  }
  if (kind == CellKind::Constant) {
    if ((param & ~width_mask(onet.width)) != 0) {
      return BuildIssue{ErrCode::ParseNumber, "constant " + std::to_string(param) +
                                                  " does not fit in " +
                                                  std::to_string(onet.width) + " bits"};
    }
  } else if (kind != CellKind::PrimaryInput) {
    const unsigned inferred = infer_width(kind, ins);
    if (onet.width != inferred) {
      return broken(ErrCode::ParseWidth, ": output net '" + onet.name + "' width " +
                                             std::to_string(onet.width) + " != inferred width " +
                                             std::to_string(inferred));
    }
  }
  return std::nullopt;
}

CellId Netlist::add_cell(CellKind kind, std::string name, const std::vector<NetId>& ins,
                         NetId out, std::uint64_t param) {
  const std::optional<BuildIssue> issue = cell_issue(kind, name, ins, out, param);
  OPISO_REQUIRE(!issue, issue->message);
  CellId id{static_cast<std::uint32_t>(cells_.size())};
  Cell c;
  c.kind = kind;
  c.name = name;
  c.param = param;
  c.ins = ins;
  c.out = out;
  if (cell_kind_has_output(kind)) {
    nets_[out.value()].driver = id;
    c.width = nets_[out.value()].width;
  } else {
    c.width = nets_[ins[0].value()].width;
  }
  for (int p = 0; p < static_cast<int>(ins.size()); ++p) {
    nets_[ins[static_cast<size_t>(p)].value()].fanouts.push_back(Pin{id, p});
  }
  cells_.push_back(std::move(c));
  cell_by_name_.emplace(std::move(name), id);
  if (kind == CellKind::PrimaryInput) inputs_.push_back(id);
  if (kind == CellKind::PrimaryOutput) outputs_.push_back(id);
  return id;
}

NetId Netlist::add_input(const std::string& name, unsigned width) {
  NetId out = add_net(name, width);
  add_cell(CellKind::PrimaryInput, "pi:" + name, {}, out);
  return out;
}

CellId Netlist::add_output(const std::string& name, NetId src) {
  return add_cell(CellKind::PrimaryOutput, "po:" + name, {src}, NetId::invalid());
}

NetId Netlist::add_const(const std::string& name, std::uint64_t value, unsigned width) {
  NetId out = add_net(name, width);
  add_cell(CellKind::Constant, "const:" + name, {}, out, value);
  return out;
}

NetId Netlist::add_unop(CellKind kind, const std::string& name, NetId a) {
  NetId out = add_net(name, infer_width(kind, {a}));
  add_cell(kind, "u:" + name, {a}, out);
  return out;
}

NetId Netlist::add_binop(CellKind kind, const std::string& name, NetId a, NetId b) {
  NetId out = add_net(name, infer_width(kind, {a, b}));
  add_cell(kind, "b:" + name, {a, b}, out);
  return out;
}

NetId Netlist::add_shift(CellKind kind, const std::string& name, NetId a, unsigned amount) {
  OPISO_REQUIRE(kind == CellKind::Shl || kind == CellKind::Shr, "add_shift: not a shift kind");
  NetId out = add_net(name, infer_width(kind, {a}));
  add_cell(kind, "s:" + name, {a}, out, amount);
  return out;
}

NetId Netlist::add_mux2(const std::string& name, NetId sel, NetId a, NetId b) {
  NetId out = add_net(name, infer_width(CellKind::Mux2, {sel, a, b}));
  add_cell(CellKind::Mux2, "m:" + name, {sel, a, b}, out);
  return out;
}

NetId Netlist::add_reg(const std::string& name, NetId d, NetId en) {
  NetId out = add_net(name, net(d).width);
  add_cell(CellKind::Reg, "r:" + name, {d, en}, out);
  return out;
}

NetId Netlist::add_latch(const std::string& name, NetId d, NetId en) {
  NetId out = add_net(name, net(d).width);
  add_cell(CellKind::Latch, "l:" + name, {d, en}, out);
  return out;
}

NetId Netlist::add_iso(CellKind kind, const std::string& name, NetId d, NetId as) {
  OPISO_REQUIRE(cell_kind_is_isolation(kind), "add_iso: not an isolation kind");
  NetId out = add_net(name, net(d).width);
  add_cell(kind, "i:" + name, {d, as}, out);
  return out;
}

void Netlist::reconnect_input(CellId consumer, int port, NetId new_net) {
  OPISO_REQUIRE(consumer.valid() && consumer.value() < cells_.size(), "invalid cell id");
  Cell& c = cells_[consumer.value()];
  OPISO_REQUIRE(port >= 0 && port < static_cast<int>(c.ins.size()),
                "reconnect_input: port out of range");
  OPISO_REQUIRE(new_net.valid() && new_net.value() < nets_.size(), "invalid net id");
  NetId old_net = c.ins[static_cast<size_t>(port)];
  OPISO_REQUIRE(nets_[old_net.value()].width == nets_[new_net.value()].width,
                "reconnect_input: width mismatch");
  auto& old_fanouts = nets_[old_net.value()].fanouts;
  auto it = std::find(old_fanouts.begin(), old_fanouts.end(), Pin{consumer, port});
  OPISO_ASSERT(it != old_fanouts.end(), "fanout list out of sync");
  old_fanouts.erase(it);
  c.ins[static_cast<size_t>(port)] = new_net;
  nets_[new_net.value()].fanouts.push_back(Pin{consumer, port});
}

std::string Netlist::fresh_net_name(const std::string& base) const {
  if (net_by_name_.find(base) == net_by_name_.end()) return base;
  for (int i = 1;; ++i) {
    std::string candidate = base + "_" + std::to_string(i);
    if (net_by_name_.find(candidate) == net_by_name_.end()) return candidate;
  }
}

void Netlist::rename_net(NetId id, const std::string& new_name) {
  OPISO_REQUIRE(id.valid() && id.value() < nets_.size(), "rename_net: invalid id");
  OPISO_REQUIRE(!new_name.empty(), "rename_net: name must be non-empty");
  OPISO_REQUIRE(net_by_name_.find(new_name) == net_by_name_.end(),
                "rename_net: duplicate net name: " + new_name);
  net_by_name_.erase(nets_[id.value()].name);
  nets_[id.value()].name = new_name;
  net_by_name_.emplace(new_name, id);
}

void Netlist::rename_cell(CellId id, const std::string& new_name) {
  OPISO_REQUIRE(id.valid() && id.value() < cells_.size(), "rename_cell: invalid id");
  OPISO_REQUIRE(!new_name.empty(), "rename_cell: name must be non-empty");
  OPISO_REQUIRE(cell_by_name_.find(new_name) == cell_by_name_.end(),
                "rename_cell: duplicate cell name: " + new_name);
  cell_by_name_.erase(cells_[id.value()].name);
  cells_[id.value()].name = new_name;
  cell_by_name_.emplace(new_name, id);
}

std::string Netlist::fresh_cell_name(const std::string& base) const {
  if (cell_by_name_.find(base) == cell_by_name_.end()) return base;
  for (int i = 1;; ++i) {
    std::string candidate = base + "_" + std::to_string(i);
    if (cell_by_name_.find(candidate) == cell_by_name_.end()) return candidate;
  }
}

void Netlist::validate() const {
  for (std::uint32_t ni = 0; ni < nets_.size(); ++ni) {
    const Net& n = nets_[ni];
    if (!n.driver.valid()) throw NetlistError("net '" + n.name + "' has no driver");
    for (const Pin& pin : n.fanouts) {
      if (!pin.cell.valid() || pin.cell.value() >= cells_.size())
        throw NetlistError("net '" + n.name + "' fans out to an invalid cell");
      const Cell& c = cells_[pin.cell.value()];
      if (pin.port < 0 || pin.port >= static_cast<int>(c.ins.size()))
        throw NetlistError("net '" + n.name + "' fanout port out of range");
      if (c.ins[static_cast<size_t>(pin.port)] != NetId{ni})
        throw NetlistError("net '" + n.name + "' fanout list inconsistent with cell '" + c.name +
                           "'");
    }
  }
  for (std::uint32_t ci = 0; ci < cells_.size(); ++ci) {
    const Cell& c = cells_[ci];
    if (cell_kind_has_output(c.kind) &&
        (!c.out.valid() || nets_[c.out.value()].driver != CellId{ci})) {
      throw NetlistError("cell '" + c.name + "' output driver link broken");
    }
  }
  // Acyclicity of the combinational graph (registers break cycles;
  // latches do not). topological_order throws on a combinational cycle.
  (void)topological_order(*this);
}

bool has_latches(const Netlist& nl) {
  for (CellId id : nl.cell_ids()) {
    if (cell_kind_is_latch(nl.cell(id).kind)) return true;
  }
  return false;
}

}  // namespace opiso
