#include "frontend/rtl_parser.hpp"

#include "netlist/traversal.hpp"

#include <cctype>
#include <fstream>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <vector>

namespace opiso {

namespace {

// ----------------------------------------------------------------- lexer
enum class Tok : std::uint8_t {
  Ident, Number, Colon, Assign, Question, Or, Xor, And, Not, Bang, LParen,
  RParen, Plus, Minus, Star, Shl, Shr, Lt, EqEq, End,
};

struct Token {
  Tok kind;
  std::string text;
  std::uint64_t number = 0;
};

class Lexer {
 public:
  Lexer(std::string_view line, int lineno) : line_(line), lineno_(lineno) { advance(); }

  [[nodiscard]] const Token& peek() const { return current_; }
  Token take() {
    Token t = current_;
    advance();
    return t;
  }
  [[noreturn]] void fail(const std::string& msg) const { fail(ErrCode::ParseSyntax, msg); }
  [[noreturn]] void fail(ErrCode code, const std::string& msg) const {
    throw ParseError(code, "rtl line " + std::to_string(lineno_) + ": " + msg, lineno_);
  }
  Token expect(Tok kind, const char* what) {
    if (current_.kind != kind) fail(std::string("expected ") + what);
    return take();
  }
  [[nodiscard]] int lineno() const { return lineno_; }

 private:
  void advance() {
    while (pos_ < line_.size() && std::isspace(static_cast<unsigned char>(line_[pos_]))) ++pos_;
    if (pos_ >= line_.size() || line_[pos_] == '#') {
      current_ = Token{Tok::End, "", 0};
      return;
    }
    const char c = line_[pos_];
    auto two = [&](char a, char b) {
      return c == a && pos_ + 1 < line_.size() && line_[pos_ + 1] == b;
    };
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = pos_;
      while (pos_ < line_.size() &&
             (std::isalnum(static_cast<unsigned char>(line_[pos_])) || line_[pos_] == '_')) {
        ++pos_;
      }
      current_ = Token{Tok::Ident, std::string(line_.substr(start, pos_ - start)), 0};
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t start = pos_;
      while (pos_ < line_.size() && std::isalnum(static_cast<unsigned char>(line_[pos_]))) ++pos_;
      const std::string text(line_.substr(start, pos_ - start));
      // stoull stops at the first bad character; demand it consumed the
      // whole token so '0xfg' or '099' cannot silently mis-parse, and
      // surface out-of-range values instead of wrapping.
      try {
        std::size_t consumed = 0;
        const std::uint64_t value = std::stoull(text, &consumed, 0);
        if (consumed != text.size()) {
          fail(ErrCode::ParseNumber, "bad number literal '" + text + "'");
        }
        current_ = Token{Tok::Number, text, value};
      } catch (const ParseError&) {
        throw;
      } catch (const std::out_of_range&) {
        fail(ErrCode::ParseNumber, "number literal '" + text + "' does not fit in 64 bits");
      } catch (const std::exception&) {
        fail(ErrCode::ParseNumber, "bad number literal '" + text + "'");
      }
      return;
    }
    if (two('<', '<')) { pos_ += 2; current_ = {Tok::Shl, "<<", 0}; return; }
    if (two('>', '>')) { pos_ += 2; current_ = {Tok::Shr, ">>", 0}; return; }
    if (two('=', '=')) { pos_ += 2; current_ = {Tok::EqEq, "==", 0}; return; }
    ++pos_;
    switch (c) {
      case ':': current_ = {Tok::Colon, ":", 0}; return;
      case '=': current_ = {Tok::Assign, "=", 0}; return;
      case '?': current_ = {Tok::Question, "?", 0}; return;
      case '|': current_ = {Tok::Or, "|", 0}; return;
      case '^': current_ = {Tok::Xor, "^", 0}; return;
      case '&': current_ = {Tok::And, "&", 0}; return;
      case '~': current_ = {Tok::Not, "~", 0}; return;
      case '!': current_ = {Tok::Bang, "!", 0}; return;
      case '(': current_ = {Tok::LParen, "(", 0}; return;
      case ')': current_ = {Tok::RParen, ")", 0}; return;
      case '+': current_ = {Tok::Plus, "+", 0}; return;
      case '-': current_ = {Tok::Minus, "-", 0}; return;
      case '*': current_ = {Tok::Star, "*", 0}; return;
      case '<': current_ = {Tok::Lt, "<", 0}; return;
      default: fail(std::string("unexpected character '") + c + "'");
    }
  }

  std::string_view line_;
  int lineno_;
  std::size_t pos_ = 0;
  Token current_{Tok::End, "", 0};
};

// Widths are validated before they reach Netlist builders so the
// diagnostic carries the input line, and so a declared width never
// truncates through a narrowing cast (':4294967297' must not become ':1').
unsigned checked_width(Lexer& lx, std::uint64_t w) {
  if (w < 1 || w > 64) {
    lx.fail(ErrCode::ParseWidth, "width " + std::to_string(w) + " out of range [1,64]");
  }
  return static_cast<unsigned>(w);
}

// Nested expressions recurse through parse_ternary/parse_unary/
// parse_primary; bound the depth so '((((...' exhausts the budget with a
// diagnostic instead of the stack.
constexpr int kMaxExprDepth = 256;

// ------------------------------------------------------------ elaborator
struct Elaborator {
  Netlist nl;
  std::unordered_map<std::string, NetId> symbols;
  NetId const_true;
  int temp_counter = 0;
  int expr_depth = 0;

  struct DepthGuard {
    Elaborator& el;
    DepthGuard(Elaborator& e, Lexer& lx) : el(e) {
      if (++el.expr_depth > kMaxExprDepth) {
        --el.expr_depth;
        lx.fail(ErrCode::ParseDepth,
                "expression nesting exceeds " + std::to_string(kMaxExprDepth) + " levels");
      }
    }
    ~DepthGuard() { --el.expr_depth; }
  };

  NetId lookup(Lexer& lx, const std::string& name) {
    auto it = symbols.find(name);
    if (it == symbols.end()) {
      lx.fail(ErrCode::ParseUnknownRef, "unknown signal '" + name + "'");
    }
    return it->second;
  }

  // Redefinitions are checked up front, before any expression is
  // elaborated under the statement's name hint — otherwise the netlist
  // rename trips first and the diagnostic loses its parse.duplicate
  // code (and points at the builder, not the input).
  void declare(Lexer& lx, const std::string& name) {
    if (symbols.count(name) != 0) {
      lx.fail(ErrCode::ParseDuplicate, "redefinition of '" + name + "'");
    }
  }

  void define(Lexer& lx, const std::string& name, NetId net) {
    if (!symbols.emplace(name, net).second) {
      lx.fail(ErrCode::ParseDuplicate, "redefinition of '" + name + "'");
    }
  }

  // Every net and cell goes through these, which check the builder's
  // rules first: a design that breaks one is rejected with the rule's
  // code and the statement's line.
  static void check(Lexer& lx, const std::optional<BuildIssue>& issue) {
    if (issue) lx.fail(issue->code, issue->message);
  }
  NetId net(Lexer& lx, const std::string& name, unsigned width) {
    check(lx, nl.net_issue(name, width));
    return nl.add_net(name, width);
  }
  CellId cell(Lexer& lx, CellKind kind, const std::string& name, const std::vector<NetId>& ins,
              NetId out, std::uint64_t param = 0) {
    check(lx, nl.cell_issue(kind, name, ins, out, param));
    return nl.add_cell(kind, name, ins, out, param);
  }
  /// A `kind` cell `prefix + name` driving a new net `name` (the naming
  /// of Netlist's add_* helpers), `width` bits wide or, when 0, as wide
  /// as its inputs make it.
  NetId op(Lexer& lx, CellKind kind, const std::string& prefix, const std::string& name,
           const std::vector<NetId>& ins, std::uint64_t param = 0, unsigned width = 0) {
    const NetId out = net(lx, name, width != 0 ? width : nl.infer_width(kind, ins));
    cell(lx, kind, prefix + name, ins, out, param);
    return out;
  }

  NetId ensure_true(Lexer& lx) {
    if (!const_true.valid()) const_true = op(lx, CellKind::Constant, "const:", "__true", {}, 1, 1);
    return const_true;
  }

  std::string temp_name() { return nl.fresh_net_name("__t" + std::to_string(temp_counter++)); }

  // Expression parsing, loosest binding first. `hint` names the net the
  // top-level operation produces (empty -> generated temp name).
  NetId parse_expr(Lexer& lx, const std::string& hint = "") { return parse_ternary(lx, hint); }

  NetId parse_ternary(Lexer& lx, const std::string& hint) {
    DepthGuard guard(*this, lx);
    NetId cond = parse_or(lx, "");
    if (lx.peek().kind != Tok::Question) {
      return maybe_name(lx, cond, hint);
    }
    lx.take();
    NetId then_net = parse_or(lx, "");
    lx.expect(Tok::Colon, "':' in ternary");
    NetId else_net = parse_ternary(lx, "");
    // Mux2 semantics: S = 1 selects the B leg, so `c ? a : b` puts the
    // then-value on B.
    return op(lx, CellKind::Mux2, "m:", hint.empty() ? temp_name() : hint,
              {cond, else_net, then_net});
  }

  NetId binop_chain(Lexer& lx, const std::string& hint, NetId (Elaborator::*next)(Lexer&),
                    const std::vector<std::pair<Tok, CellKind>>& ops) {
    NetId lhs = (this->*next)(lx);
    while (true) {
      CellKind kind{};
      bool matched = false;
      for (const auto& [tok, k] : ops) {
        if (lx.peek().kind == tok) {
          kind = k;
          matched = true;
          break;
        }
      }
      if (!matched) return lhs;
      lx.take();
      NetId rhs = (this->*next)(lx);
      const bool last = [&] {
        for (const auto& [tok, k] : ops) {
          (void)k;
          if (lx.peek().kind == tok) return false;
        }
        return true;
      }();
      const std::string name = (last && !hint.empty()) ? hint : temp_name();
      lhs = op(lx, kind, "b:", name, {lhs, rhs});
    }
  }

  NetId parse_or(Lexer& lx, const std::string& hint) {
    return binop_chain(lx, hint, &Elaborator::parse_xor_entry, {{Tok::Or, CellKind::Or}});
  }
  NetId parse_xor_entry(Lexer& lx) { return parse_xor(lx, ""); }
  NetId parse_xor(Lexer& lx, const std::string& hint) {
    return binop_chain(lx, hint, &Elaborator::parse_and_entry, {{Tok::Xor, CellKind::Xor}});
  }
  NetId parse_and_entry(Lexer& lx) { return parse_and(lx, ""); }
  NetId parse_and(Lexer& lx, const std::string& hint) {
    return binop_chain(lx, hint, &Elaborator::parse_cmp_entry, {{Tok::And, CellKind::And}});
  }
  NetId parse_cmp_entry(Lexer& lx) { return parse_cmp(lx, ""); }
  NetId parse_cmp(Lexer& lx, const std::string& hint) {
    return binop_chain(lx, hint, &Elaborator::parse_shift_entry,
                       {{Tok::EqEq, CellKind::Eq}, {Tok::Lt, CellKind::Lt}});
  }
  NetId parse_shift_entry(Lexer& lx) { return parse_shift(lx, ""); }

  NetId parse_shift(Lexer& lx, const std::string& hint) {
    NetId lhs = parse_add(lx, "");
    while (lx.peek().kind == Tok::Shl || lx.peek().kind == Tok::Shr) {
      const CellKind kind = lx.take().kind == Tok::Shl ? CellKind::Shl : CellKind::Shr;
      const Token amount = lx.expect(Tok::Number, "constant shift amount");
      // Nets are at most 64 bits wide, so any larger amount is a typo;
      // rejecting it also rules out silent truncation mod 2^32.
      if (amount.number > 64) {
        lx.fail(ErrCode::ParseNumber,
                "shift amount " + amount.text + " exceeds the 64-bit net limit");
      }
      const bool last = lx.peek().kind != Tok::Shl && lx.peek().kind != Tok::Shr;
      lhs = op(lx, kind, "s:", (last && !hint.empty()) ? hint : temp_name(), {lhs},
               amount.number);
    }
    return lhs;
  }

  NetId parse_add(Lexer& lx, const std::string& hint) {
    return binop_chain(lx, hint, &Elaborator::parse_mul_entry,
                       {{Tok::Plus, CellKind::Add}, {Tok::Minus, CellKind::Sub}});
  }
  NetId parse_mul_entry(Lexer& lx) { return parse_mul(lx, ""); }
  NetId parse_mul(Lexer& lx, const std::string& hint) {
    return binop_chain(lx, hint, &Elaborator::parse_unary_entry, {{Tok::Star, CellKind::Mul}});
  }
  NetId parse_unary_entry(Lexer& lx) { return parse_unary(lx, ""); }

  NetId parse_unary(Lexer& lx, const std::string& hint) {
    DepthGuard guard(*this, lx);
    if (lx.peek().kind == Tok::Not || lx.peek().kind == Tok::Bang) {
      lx.take();
      NetId inner = parse_unary(lx, "");
      return op(lx, CellKind::Not, "u:", hint.empty() ? temp_name() : hint, {inner});
    }
    return parse_primary(lx, hint);
  }

  NetId parse_primary(Lexer& lx, const std::string& hint) {
    const Token t = lx.take();
    switch (t.kind) {
      case Tok::Ident:
        return lookup(lx, t.text);
      case Tok::Number: {
        // Sized literal: value:width.
        if (lx.peek().kind != Tok::Colon) lx.fail("literal needs a width: value:width");
        lx.take();
        const Token w = lx.expect(Tok::Number, "literal width");
        return op(lx, CellKind::Constant, "const:", hint.empty() ? temp_name() : hint, {},
                  t.number, checked_width(lx, w.number));
      }
      case Tok::LParen: {
        NetId inner = parse_expr(lx, hint);
        lx.expect(Tok::RParen, "')'");
        return inner;
      }
      default:
        lx.fail("expected identifier, literal or '('");
    }
  }

  /// Give `net` the name `hint`: generated temporaries are renamed in
  /// place (their driving cell too); pre-existing signals (`wire x = y`)
  /// get a buffer so both names stay addressable.
  NetId maybe_name(Lexer& lx, NetId named, const std::string& hint) {
    if (hint.empty()) return named;
    if (nl.net(named).name.rfind("__t", 0) == 0) {
      check(lx, nl.net_issue(hint, nl.net(named).width));
      const CellId drv = nl.net(named).driver;
      nl.rename_net(named, hint);
      nl.rename_cell(drv, nl.fresh_cell_name(hint));
      return named;
    }
    return op(lx, CellKind::Buf, "u:", hint, {named});
  }
};

struct Statement {
  int lineno;
  std::string text;
};

std::optional<unsigned> parse_width_suffix(Lexer& lx) {
  if (lx.peek().kind != Tok::Colon) return std::nullopt;
  lx.take();
  const Token w = lx.expect(Tok::Number, "width");
  return checked_width(lx, w.number);
}

}  // namespace

Netlist parse_rtl(const std::string& text) { return parse_rtl(text, RtlParseOptions{}); }

Netlist parse_rtl(const std::string& text, const RtlParseOptions& options,
                  SourceMap* source_map) {
  // Lines are always tracked in a local map even when the caller passes
  // none: the cycle diagnostic below needs a line to point at.
  SourceMap local_map;
  SourceMap& map = source_map != nullptr ? *source_map : local_map;

  // Split into statements (one per line; '#' comments).
  std::vector<Statement> stmts;
  {
    std::istringstream is(text);
    std::string line;
    int lineno = 0;
    while (std::getline(is, line)) {
      ++lineno;
      if (auto hash = line.find('#'); hash != std::string::npos) line.erase(hash);
      bool blank = true;
      for (char c : line) {
        if (!std::isspace(static_cast<unsigned char>(c))) blank = false;
      }
      if (!blank) stmts.push_back(Statement{lineno, line});
    }
  }

  Elaborator el;

  // Attribute every net/cell the elaborator created while handling a
  // statement to that statement's line. Renames happen within the
  // statement that performs them, so the names seen here are final.
  std::size_t nets_seen = 0;
  std::size_t cells_seen = 0;
  auto record_new = [&](int lineno) {
    for (; nets_seen < el.nl.num_nets(); ++nets_seen) {
      map.net_lines.emplace(el.nl.net(NetId{static_cast<std::uint32_t>(nets_seen)}).name, lineno);
    }
    for (; cells_seen < el.nl.num_cells(); ++cells_seen) {
      map.cell_lines.emplace(el.nl.cell(CellId{static_cast<std::uint32_t>(cells_seen)}).name,
                             lineno);
    }
  };

  // ---- pass 1: pre-declare registers and latches so any statement —
  // including their own — may reference them (feedback), and pick up
  // the design name.
  struct SeqDecl {
    CellId cell;
    Statement stmt;
  };
  std::vector<SeqDecl> seq;
  for (const Statement& s : stmts) {
    Lexer lx(s.text, s.lineno);
    if (lx.peek().kind != Tok::Ident) lx.fail("expected a statement keyword");
    const std::string head = lx.peek().text;
    if (head == "design") {
      lx.take();
      el.nl.set_name(lx.expect(Tok::Ident, "design name").text);
    } else if (head == "reg" || head == "latch") {
      lx.take();
      const Token name = lx.expect(Tok::Ident, "register name");
      const auto width = parse_width_suffix(lx);
      if (!width) lx.fail("'" + name.text + "': reg/latch needs an explicit width");
      const NetId q = el.net(lx, name.text, *width);
      const NetId en = el.ensure_true(lx);
      // D self-loops on Q until pass 2 elaborates the expression.
      const CellId cell = el.cell(lx, head == "reg" ? CellKind::Reg : CellKind::Latch,
                                  (head == "reg" ? "r:" : "l:") + name.text, {q, en}, q);
      el.define(lx, name.text, q);
      seq.push_back(SeqDecl{cell, s});
    }
    record_new(s.lineno);
  }

  // ---- pass 2: elaborate statements in source order. Netlist-level
  // violations (duplicate names, width rules) surface as ParseErrors
  // carrying the offending line.
  std::size_t seq_index = 0;
  for (const Statement& s : stmts) {
    Lexer lx(s.text, s.lineno);
    const std::string head = lx.expect(Tok::Ident, "statement keyword").text;
    if (head == "design") continue;
    if (head == "input") {
      const Token name = lx.expect(Tok::Ident, "input name");
      el.declare(lx, name.text);
      const unsigned width = parse_width_suffix(lx).value_or(1);
      el.define(lx, name.text, el.op(lx, CellKind::PrimaryInput, "pi:", name.text, {}, 0, width));
    } else if (head == "const") {
      const Token name = lx.expect(Tok::Ident, "const name");
      el.declare(lx, name.text);
      const auto width = parse_width_suffix(lx);
      if (!width) lx.fail("const needs a width");
      lx.expect(Tok::Assign, "'='");
      const Token value = lx.expect(Tok::Number, "constant value");
      el.define(lx, name.text,
                el.op(lx, CellKind::Constant, "const:", name.text, {}, value.number, *width));
    } else if (head == "wire") {
      const Token name = lx.expect(Tok::Ident, "wire name");
      el.declare(lx, name.text);
      const auto width = parse_width_suffix(lx);
      lx.expect(Tok::Assign, "'='");
      const NetId net = el.parse_expr(lx, name.text);
      if (width && el.nl.net(net).width != *width) {
        lx.fail("wire '" + name.text + "' declared :" + std::to_string(*width) +
                " but expression has width " + std::to_string(el.nl.net(net).width));
      }
      el.define(lx, name.text, net);
    } else if (head == "reg" || head == "latch") {
      const SeqDecl& decl = seq.at(seq_index++);
      lx.expect(Tok::Ident, "register name");
      (void)parse_width_suffix(lx);
      lx.expect(Tok::Assign, "'='");
      const NetId d = el.parse_expr(lx, "");
      if (el.nl.net(d).width != el.nl.cell(decl.cell).width) {
        lx.fail("reg/latch D width mismatch");
      }
      el.nl.reconnect_input(decl.cell, 0, d);
      if (lx.peek().kind == Tok::Ident && lx.peek().text == "when") {
        lx.take();
        const NetId en = el.parse_expr(lx, "");
        if (el.nl.net(en).width != 1) lx.fail("'when' expression must be 1 bit wide");
        el.nl.reconnect_input(decl.cell, 1, en);
      }
    } else if (head == "output") {
      const Token name = lx.expect(Tok::Ident, "output name");
      lx.expect(Tok::Assign, "'='");
      const NetId net = el.parse_expr(lx, "");
      el.cell(lx, CellKind::PrimaryOutput, "po:" + name.text, {net}, NetId::invalid());
    } else {
      lx.fail("unknown statement '" + head + "'");
    }
    if (lx.peek().kind != Tok::End) lx.fail("trailing tokens after statement");
    record_new(s.lineno);
  }

  if (options.validate) {
    try {
      el.nl.validate();
    } catch (const NetlistError&) {
      // A combinational cycle is a whole-design property, so validate()
      // cannot blame a statement. Rebuild the blame here: name the cycle
      // and point at the line of its first cell.
      const auto sccs = combinational_sccs(el.nl);
      if (sccs.empty()) throw;
      const int at = map.cell_line(el.nl.cell(sccs.front().front()).name);
      throw ParseError(ErrCode::LintCombLoop,
                       "rtl line " + std::to_string(at) + ": combinational cycle through " +
                           describe_comb_cycle(el.nl, sccs.front()),
                       at);
    }
  }
  return el.nl;
}

Netlist parse_rtl_file(const std::string& path) {
  return parse_rtl_file(path, RtlParseOptions{});
}

Netlist parse_rtl_file(const std::string& path, const RtlParseOptions& options,
                       SourceMap* source_map) {
  std::ifstream is(path);
  if (!is.good()) throw IoError("cannot open '" + path + "' for reading");
  std::ostringstream buf;
  buf << is.rdbuf();
  return parse_rtl(buf.str(), options, source_map);
}

}  // namespace opiso
