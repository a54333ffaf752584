#include "obs/vcd.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <ostream>
#include <unordered_map>

#include "util/error.hpp"

namespace opiso::obs {

namespace {

void require_parse(bool cond, const std::string& msg) {
  if (!cond) throw ParseError(msg);
}

// Deterministic identifier codes: index -> shortest base-94 string over
// the printable VCD alphabet '!'..'~', little-endian like real dumpers.
std::string id_code(std::size_t index) {
  std::string code;
  do {
    code.push_back(static_cast<char>('!' + index % 94));
    index /= 94;
  } while (index > 0);
  return code;
}

// VCD reference names may not contain whitespace; netlist names are
// already identifier-like, but sanitize defensively.
std::string sanitize(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) out.push_back(std::isspace(static_cast<unsigned char>(c)) ? '_' : c);
  if (out.empty()) out = "_";
  return out;
}

void write_vector(std::ostream& os, std::uint64_t value, unsigned width, const std::string& id) {
  if (width == 1) {
    os << (value & 1) << id << '\n';
    return;
  }
  os << 'b';
  for (int b = static_cast<int>(width) - 1; b >= 0; --b) os << ((value >> b) & 1);
  os << ' ' << id << '\n';
}

}  // namespace

void write_vcd(std::ostream& os, const Netlist& nl, const CycleTrace& trace,
               const PowerTrace* power) {
  OPISO_REQUIRE(trace.has_values(), "write_vcd: trace has no value snapshots (capture with "
                                    "record_values required)");
  const WindowCounts& windows = trace.windows();
  OPISO_REQUIRE(windows.frames() == 0 || windows.num_nets() == nl.num_nets(),
                "write_vcd: trace was captured from a different netlist");

  std::size_t next_id = 0;
  std::vector<std::string> net_ids(nl.num_nets());
  for (NetId id : nl.net_ids()) net_ids[id.value()] = id_code(next_id++);
  std::vector<std::string> cell_e_ids;
  std::vector<std::string> cell_t_ids;
  if (power != nullptr) {
    cell_e_ids.resize(nl.num_cells());
    cell_t_ids.resize(nl.num_cells());
    for (CellId id : nl.cell_ids()) {
      cell_e_ids[id.value()] = id_code(next_id++);
      cell_t_ids[id.value()] = id_code(next_id++);
    }
  }

  os << "$comment net values are lane 0 of " << trace.lanes()
     << " lane(s); e_/t_ power signals are summed over all lanes $end\n";
  os << "$timescale 1ns $end\n";
  os << "$scope module " << (nl.name().empty() ? "top" : sanitize(nl.name())) << " $end\n";
  for (NetId id : nl.net_ids()) {
    const Net& n = nl.net(id);
    os << "$var wire " << n.width << ' ' << net_ids[id.value()] << ' ' << sanitize(n.name)
       << " $end\n";
  }
  if (power != nullptr) {
    os << "$scope module power $end\n";
    for (CellId id : nl.cell_ids()) {
      const std::string name = sanitize(nl.cell(id).name);
      os << "$var real 64 " << cell_e_ids[id.value()] << " e_" << name << " $end\n";
      os << "$var real 64 " << cell_t_ids[id.value()] << " t_" << name << " $end\n";
    }
    os << "$upscope $end\n";
  }
  os << "$upscope $end\n$enddefinitions $end\n";

  const std::size_t ns = windows.num_windows();
  std::uint64_t cycle_start = 0;
  for (std::size_t s = 0; s < ns; ++s) {
    os << '#' << cycle_start * 10 << '\n';
    const std::span<const std::uint64_t> values = trace.sample_values(s);
    for (NetId id : nl.net_ids()) {
      const std::size_t n = id.value();
      if (s > 0 && values[n] == trace.sample_values(s - 1)[n]) continue;
      write_vector(os, values[n], nl.net(id).width, net_ids[n]);
    }
    if (power != nullptr) {
      for (CellId id : nl.cell_ids()) {
        const std::size_t c = id.value();
        const std::uint64_t e = power->cell_fj[c][s];
        const std::uint64_t t = power->cell_toggles[c][s];
        if (s == 0 || power->cell_fj[c][s - 1] != e) {
          os << 'r' << e << ' ' << cell_e_ids[c] << '\n';
        }
        if (s == 0 || power->cell_toggles[c][s - 1] != t) {
          os << 'r' << t << ' ' << cell_t_ids[c] << '\n';
        }
      }
    }
    cycle_start += windows.frames_in(s);
  }
}

namespace {

class VcdLexer {
 public:
  explicit VcdLexer(std::string_view text) : text_(text) {}

  [[nodiscard]] bool eof() {
    skip_space();
    return pos_ >= text_.size();
  }

  /// Next whitespace-delimited token; empty at end of input.
  std::string_view token() {
    skip_space();
    const std::size_t start = pos_;
    while (pos_ < text_.size() && !std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    return text_.substr(start, pos_ - start);
  }

  /// Consume tokens up to and including "$end".
  std::string until_end(std::string_view what) {
    std::string body;
    while (true) {
      const std::string_view t = token();
      require_parse(!t.empty(), std::string("vcd: unterminated ") + std::string(what));
      if (t == "$end") return body;
      if (!body.empty()) body.push_back(' ');
      body.append(t);
    }
  }

 private:
  void skip_space() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

/// The whole token as a number (std::from_chars: no sign on unsigned
/// types, no wrap past the type's range, no trailing characters).
template <class T>
T parse_number(std::string_view s, std::string_view what) {
  T v{};
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  require_parse(ec == std::errc{} && end == s.data() + s.size(),
                "vcd: bad " + std::string(what) + " '" + std::string(s) + "'");
  return v;
}

}  // namespace

const VcdVar* VcdDocument::find_var(std::string_view name) const {
  for (const VcdVar& v : vars) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

VcdDocument parse_vcd(std::string_view text) {
  VcdDocument doc;
  VcdLexer lex(text);
  std::unordered_map<std::string, unsigned> widths;  // id code -> declared width

  // Declaration section.
  bool in_defs = true;
  while (in_defs) {
    require_parse(!lex.eof(), "vcd: missing $enddefinitions");
    const std::string_view t = lex.token();
    if (t == "$timescale") {
      doc.timescale = lex.until_end("$timescale");
    } else if (t == "$scope") {
      doc.scopes.push_back(lex.until_end("$scope"));
    } else if (t == "$upscope" || t == "$comment" || t == "$date" || t == "$version") {
      lex.until_end(t);
    } else if (t == "$var") {
      VcdVar var;
      var.type = std::string(lex.token());
      const auto width = parse_number<std::uint64_t>(lex.token(), "$var width");
      require_parse(width >= 1 && width <= 64,
                    "vcd: unsupported $var width " + std::to_string(width));
      var.width = static_cast<unsigned>(width);
      var.id = std::string(lex.token());
      const std::string rest = lex.until_end("$var");
      // Reference name, possibly followed by a bit-select — keep the name.
      var.name = rest.substr(0, rest.find(' '));
      require_parse(!var.id.empty() && !var.name.empty(), "vcd: malformed $var");
      // An identifier may alias one signal in several scopes, at one width.
      require_parse(widths.emplace(var.id, var.width).first->second == var.width,
                    "vcd: identifier '" + var.id + "' redeclared with another width");
      doc.vars.push_back(std::move(var));
    } else if (t == "$enddefinitions") {
      lex.until_end(t);
      in_defs = false;
    } else {
      throw ParseError("vcd: unexpected token in declarations: " + std::string(t));
    }
  }

  // Value-change section.
  bool have_time = false;
  while (!lex.eof()) {
    const std::string_view t = lex.token();
    const char c = t.front();
    if (c == '#') {
      const auto ts = parse_number<std::uint64_t>(t.substr(1), "timestamp");
      require_parse(!have_time || ts > doc.last_timestamp, "vcd: non-increasing timestamp #" + std::to_string(ts));
      if (!have_time) doc.first_timestamp = ts;
      doc.last_timestamp = ts;
      have_time = true;
      ++doc.num_timestamps;
    } else if (c == '$') {
      // $dumpvars / $dumpall / ... sections: contents are ordinary value
      // changes; the $end shows up as its own token and is skipped here.
      if (t != "$end") continue;
    } else if (c == '0' || c == '1' || c == 'x' || c == 'X' || c == 'z' || c == 'Z') {
      require_parse(have_time, "vcd: value change before timestamp");
      const std::string id(t.substr(1));
      const auto it = widths.find(id);
      require_parse(it != widths.end(), "vcd: change on undeclared identifier '" + id + "'");
      ++doc.num_changes;
    } else if (c == 'b' || c == 'B') {
      require_parse(have_time, "vcd: value change before timestamp");
      const std::string_view bits = t.substr(1);
      require_parse(!bits.empty(), "vcd: empty vector value");
      for (char bc : bits) {
        require_parse(bc == '0' || bc == '1' || bc == 'x' || bc == 'X' || bc == 'z' ||
                              bc == 'Z', "vcd: bad vector digit");
      }
      const std::string id(lex.token());
      const auto it = widths.find(id);
      require_parse(it != widths.end(), "vcd: change on undeclared identifier '" + id + "'");
      require_parse(bits.size() <= it->second, "vcd: vector value wider than declared width of '" + id + "'");
      ++doc.num_changes;
    } else if (c == 'r' || c == 'R') {
      require_parse(have_time, "vcd: value change before timestamp");
      require_parse(std::isfinite(parse_number<double>(t.substr(1), "real value")),
                    "vcd: non-finite real value '" + std::string(t.substr(1)) + "'");
      const std::string id(lex.token());
      const auto it = widths.find(id);
      require_parse(it != widths.end(), "vcd: change on undeclared identifier '" + id + "'");
      ++doc.num_changes;
    } else {
      throw ParseError("vcd: unexpected token in value changes: " + std::string(t));
    }
  }
  return doc;
}

}  // namespace opiso::obs
