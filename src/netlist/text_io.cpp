#include "netlist/text_io.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <string_view>

#include "netlist/traversal.hpp"

namespace opiso {

void write_netlist(std::ostream& os, const Netlist& nl) {
  os << "design " << (nl.name().empty() ? "unnamed" : nl.name()) << "\n";
  for (NetId id : nl.net_ids()) {
    const Net& n = nl.net(id);
    os << "net " << n.name << ' ' << n.width << "\n";
  }
  for (CellId id : nl.cell_ids()) {
    const Cell& c = nl.cell(id);
    os << "cell " << c.name << ' ' << cell_kind_name(c.kind);
    if (c.param != 0) os << " param=" << c.param;
    os << " -> " << (c.out.valid() ? nl.net(c.out).name : "-") << " :";
    for (NetId in : c.ins) os << ' ' << nl.net(in).name;
    os << "\n";
  }
}

std::string netlist_to_string(const Netlist& nl) {
  std::ostringstream os;
  write_netlist(os, nl);
  return os.str();
}

Netlist read_netlist(std::istream& is) { return read_netlist(is, NetlistReadOptions{}); }

Netlist read_netlist(std::istream& is, const NetlistReadOptions& options,
                     SourceMap* source_map) {
  Netlist nl;
  std::string line;
  int lineno = 0;
  auto fail = [&](const std::string& msg, ErrCode code = ErrCode::ParseSyntax) {
    throw ParseError(code, "rtn line " + std::to_string(lineno) + ": " + msg, lineno);
  };
  // A decimal number is the whole token: no sign, no suffix, no wrap.
  auto number = [&](std::string_view tok, const std::string& what) {
    std::uint64_t v = 0;
    const auto [end, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
    if (ec == std::errc::result_out_of_range) {
      fail(what + " '" + std::string(tok) + "' does not fit in 64 bits", ErrCode::ParseNumber);
    }
    if (ec != std::errc{} || end != tok.data() + tok.size()) {
      fail("bad " + what + " '" + std::string(tok) + "'", ErrCode::ParseNumber);
    }
    return v;
  };
  // A builder rule the line would break is rejected before the builder runs.
  auto check = [&](const std::optional<BuildIssue>& issue) {
    if (issue) fail(issue->message, issue->code);
  };
  while (std::getline(is, line)) {
    ++lineno;
    // Strip comments and surrounding whitespace.
    if (auto hash = line.find('#'); hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string head, tok;
    if (!(ls >> head)) continue;
    if (head == "design") {
      std::string name;
      if (!(ls >> name)) fail("design needs a name");
      if (ls >> tok) fail("trailing tokens after the design name");
      nl.set_name(name);
    } else if (head == "net") {
      std::string name;
      if (!(ls >> name >> tok)) fail("net needs <name> <width>");
      const std::uint64_t width = number(tok, "net width");
      check(nl.net_issue(name, width));
      if (ls >> tok) fail("trailing tokens after the net width");
      nl.add_net(name, static_cast<unsigned>(width));
      if (source_map != nullptr) source_map->net_lines.emplace(name, lineno);
    } else if (head == "cell") {
      std::string name, kind_name;
      if (!(ls >> name >> kind_name)) fail("cell needs <name> <kind>");
      CellKind kind{};
      try {
        kind = cell_kind_from_name(kind_name);
      } catch (const ParseError& e) {
        fail(e.what());
      }
      std::uint64_t param = 0;
      if (!(ls >> tok)) fail("cell line truncated");
      if (tok.rfind("param=", 0) == 0) {
        // Only constants and shifts read a param, and a shift amount is
        // bounded by the 64-bit net limit, as in the RTL reader.
        if (kind != CellKind::Constant && kind != CellKind::Shl && kind != CellKind::Shr) {
          fail(kind_name + " cell '" + name + "' takes no param");
        }
        param = number(std::string_view(tok).substr(6), "param");
        if (kind != CellKind::Constant && param > 64) {
          fail("shift amount " + std::to_string(param) + " exceeds the 64-bit net limit",
               ErrCode::ParseNumber);
        }
        if (!(ls >> tok)) fail("cell line truncated after param");
      }
      if (tok != "->") fail("expected '->'");
      std::string out_name;
      if (!(ls >> out_name)) fail("cell needs an output net or '-'");
      std::string colon;
      if (!(ls >> colon) || colon != ":") fail("expected ':' before inputs");
      std::vector<NetId> ins;
      while (ls >> tok) {
        NetId in = nl.find_net(tok);
        if (!in.valid()) fail("unknown input net '" + tok + "'");
        ins.push_back(in);
      }
      NetId out = NetId::invalid();
      if (out_name != "-") {
        out = nl.find_net(out_name);
        if (!out.valid()) fail("unknown output net '" + out_name + "'");
      }
      check(nl.cell_issue(kind, name, ins, out, param));
      nl.add_cell(kind, name, ins, out, param);
      if (source_map != nullptr) source_map->cell_lines.emplace(name, lineno);
    } else {
      fail("unknown directive '" + head + "'");
    }
  }
  if (options.validate) {
    try {
      nl.validate();
    } catch (const NetlistError& e) {
      // A cycle is a property of the whole design, not one statement; wrap
      // it as a parse diagnostic pointing at the first cell on the cycle so
      // drivers get a line-carrying, stable-coded rejection.
      const auto sccs = combinational_sccs(nl);
      if (sccs.empty()) throw;
      int at = 0;
      if (source_map != nullptr) at = source_map->cell_line(nl.cell(sccs.front().front()).name);
      throw ParseError(ErrCode::LintCombLoop,
                       "rtn line " + std::to_string(at) + ": combinational cycle through " +
                           describe_comb_cycle(nl, sccs.front()),
                       at);
    }
  }
  return nl;
}

Netlist netlist_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_netlist(is);
}

Netlist load_netlist(const std::string& path) {
  std::ifstream is(path);
  if (!is.good()) throw IoError("cannot open '" + path + "' for reading");
  return read_netlist(is);
}

Netlist load_netlist(const std::string& path, const NetlistReadOptions& options,
                     SourceMap* source_map) {
  std::ifstream is(path);
  if (!is.good()) throw IoError("cannot open '" + path + "' for reading");
  return read_netlist(is, options, source_map);
}

}  // namespace opiso
