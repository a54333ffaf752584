#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>

namespace opiso::obs {

namespace {

// Recursive-descent nesting budget: '[[[[...' on untrusted input must
// exhaust this limit (structured parse error) rather than the stack.
constexpr int kMaxJsonDepth = 128;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const { fail(ErrCode::JsonSyntax, why); }
  [[noreturn]] void fail(ErrCode code, const std::string& why) const {
    std::ostringstream os;
    os << "JSON parse error at offset " << pos_ << ": " << why;
    throw ParseError(code, os.str());
  }

  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad hex digit in \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // produced by our own writer; decode them permissively as-is).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    bool integral = true;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      if (!std::isdigit(static_cast<unsigned char>(text_[pos_])) && text_[pos_] != '-') {
        integral = false;
      }
      ++pos_;
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    const char* first = token.data();
    const char* last = token.data() + token.size();
    if (integral && !token.empty()) {
      // Exact path: integer tokens round-trip through int64/uint64 so
      // counters beyond 2^53 survive parse() unchanged. Out-of-range
      // tokens fall back to the double path below.
      if (token[0] == '-') {
        std::int64_t v = 0;
        const auto [ptr, ec] = std::from_chars(first, last, v);
        if (ec == std::errc() && ptr == last) return JsonValue(static_cast<long long>(v));
      } else {
        std::uint64_t v = 0;
        const auto [ptr, ec] = std::from_chars(first, last, v);
        if (ec == std::errc() && ptr == last) {
          // Prefer the signed representation when it fits, so the common
          // case compares exactly against values built from int/long.
          if (v <= static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())) {
            return JsonValue(static_cast<long long>(v));
          }
          return JsonValue(static_cast<unsigned long long>(v));
        }
      }
    }
    // Every double the writer emits parses back, subnormals included;
    // a literal that would overflow to ±inf or underflow to zero is
    // rejected.
    double d = 0.0;
    const auto [ptr, ec] = std::from_chars(first, last, d);
    if (ec == std::errc::result_out_of_range) {
      fail(ErrCode::JsonNumber, "number '" + std::string(token) + "' is out of double range");
    }
    if (ec != std::errc() || ptr != last) fail(ErrCode::JsonNumber, "malformed number");
    return JsonValue(d);
  }

  JsonValue parse_value() {
    DepthGuard guard(*this);
    skip_ws();
    const char c = peek();
    if (c == '{') {
      ++pos_;
      JsonValue obj = JsonValue::object();
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        return obj;
      }
      while (true) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        obj[key] = parse_value();
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        return obj;
      }
    }
    if (c == '[') {
      ++pos_;
      JsonValue arr = JsonValue::array();
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return arr;
      }
      while (true) {
        arr.push_back(parse_value());
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        return arr;
      }
    }
    if (c == '"') return JsonValue(parse_string());
    if (consume_literal("true")) return JsonValue(true);
    if (consume_literal("false")) return JsonValue(false);
    if (consume_literal("null")) return JsonValue();
    // JSON has no NaN/Infinity literals; name them explicitly so the
    // diagnostic says what was wrong instead of "unexpected character".
    if (consume_literal("NaN") || consume_literal("nan") || consume_literal("Infinity") ||
        consume_literal("-Infinity") || consume_literal("-inf") || consume_literal("inf")) {
      fail(ErrCode::JsonNumber, "NaN/Infinity literals are not valid JSON");
    }
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) return parse_number();
    fail("unexpected character");
  }

  struct DepthGuard {
    Parser& p;
    explicit DepthGuard(Parser& parser) : p(parser) {
      if (++p.depth_ > kMaxJsonDepth) {
        --p.depth_;
        p.fail(ErrCode::JsonDepth,
               "nesting exceeds " + std::to_string(kMaxJsonDepth) + " levels");
      }
    }
    ~DepthGuard() { --p.depth_; }
  };

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

bool JsonValue::as_bool() const {
  OPISO_REQUIRE(kind_ == Kind::Bool, "JsonValue: not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  OPISO_REQUIRE(kind_ == Kind::Number, "JsonValue: not a number");
  return num_;
}

std::int64_t JsonValue::as_int64() const {
  OPISO_REQUIRE(kind_ == Kind::Number, "JsonValue: not a number");
  switch (rep_) {
    case NumRep::Int64:
      return static_cast<std::int64_t>(ibits_);
    case NumRep::Uint64:
      OPISO_REQUIRE(ibits_ <= static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()),
                    "JsonValue: uint64 value does not fit int64");
      return static_cast<std::int64_t>(ibits_);
    case NumRep::Double:
      break;
  }
  OPISO_REQUIRE(num_ == std::floor(num_) && num_ >= -9.223372036854776e18 &&
                    num_ < 9.223372036854776e18,
                "JsonValue: double value is not an exact int64");
  return static_cast<std::int64_t>(num_);
}

std::uint64_t JsonValue::as_uint64() const {
  OPISO_REQUIRE(kind_ == Kind::Number, "JsonValue: not a number");
  switch (rep_) {
    case NumRep::Uint64:
      return ibits_;
    case NumRep::Int64:
      OPISO_REQUIRE(static_cast<std::int64_t>(ibits_) >= 0,
                    "JsonValue: negative value does not fit uint64");
      return ibits_;
    case NumRep::Double:
      break;
  }
  OPISO_REQUIRE(num_ == std::floor(num_) && num_ >= 0.0 && num_ < 1.8446744073709552e19,
                "JsonValue: double value is not an exact uint64");
  return static_cast<std::uint64_t>(num_);
}

const std::string& JsonValue::as_string() const {
  OPISO_REQUIRE(kind_ == Kind::String, "JsonValue: not a string");
  return str_;
}

JsonValue& JsonValue::operator[](std::string_view key) {
  if (kind_ == Kind::Null) kind_ = Kind::Object;
  OPISO_REQUIRE(kind_ == Kind::Object, "JsonValue: not an object");
  for (auto& [k, v] : members_) {
    if (k == key) return v;
  }
  members_.emplace_back(std::string(key), JsonValue());
  return members_.back().second;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  OPISO_REQUIRE(kind_ == Kind::Object, "JsonValue: not an object");
  for (const auto& [k, v] : members_) {
    if (k == key) return v;
  }
  throw Error("JsonValue: missing key '" + std::string(key) + "'");
}

bool JsonValue::contains(std::string_view key) const {
  if (kind_ != Kind::Object) return false;
  for (const auto& [k, v] : members_) {
    if (k == key) return true;
  }
  return false;
}

void JsonValue::push_back(JsonValue v) {
  if (kind_ == Kind::Null) kind_ = Kind::Array;
  OPISO_REQUIRE(kind_ == Kind::Array, "JsonValue: not an array");
  elements_.push_back(std::move(v));
}

const JsonValue& JsonValue::at(std::size_t index) const {
  OPISO_REQUIRE(kind_ == Kind::Array && index < elements_.size(),
                "JsonValue: array index out of range");
  return elements_[index];
}

std::size_t JsonValue::size() const {
  if (kind_ == Kind::Array) return elements_.size();
  if (kind_ == Kind::Object) return members_.size();
  return 0;
}

// ---------------------------------------------------------------------------
// JsonWriter

void JsonWriter::newline(std::size_t depth) {
  if (indent_ <= 0) return;
  out_ += '\n';
  out_.append(static_cast<std::size_t>(indent_) * depth, ' ');
}

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (nonempty_.empty()) return;  // the document's top-level value
  if (nonempty_.back()) out_ += ',';
  nonempty_.back() = true;
  newline(nonempty_.size());
}

void JsonWriter::close(char bracket) {
  const bool had_elements = nonempty_.back();
  nonempty_.pop_back();
  if (had_elements) newline(nonempty_.size());
  out_ += bracket;
}

JsonWriter& JsonWriter::begin_object() {
  separate();
  out_ += '{';
  nonempty_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  close('}');
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separate();
  out_ += '[';
  nonempty_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  close(']');
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  separate();
  escaped(k);
  out_ += indent_ > 0 ? ": " : ":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::nullptr_t) {
  separate();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  separate();
  out_ += b ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(long long i) {
  separate();
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof buf, i).ptr);
  return *this;
}

JsonWriter& JsonWriter::value(unsigned long long i) {
  separate();
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof buf, i).ptr);
  return *this;
}

JsonWriter& JsonWriter::value(double d) {
  // JSON has no Infinity/NaN; null is the conventional stand-in.
  if (!std::isfinite(d)) return value(nullptr);
  if (d == std::floor(d) && std::abs(d) < 9.007199254740992e15) {
    return value(static_cast<long long>(d));
  }
  separate();
  // General format at precision 17 is printf's %.17g, byte for byte.
  char buf[32];
  out_.append(buf, std::to_chars(buf, buf + sizeof buf, d, std::chars_format::general, 17).ptr);
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  separate();
  escaped(s);
  return *this;
}

void JsonWriter::escaped(std::string_view s) {
  out_ += '"';
  std::size_t run = 0;  // start of the bytes not yet copied
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out_.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out_.append(u, sizeof u);
      }
    }
  }
  out_.append(s, run, s.size() - run);
  out_ += '"';
}

JsonWriter& JsonWriter::value(const JsonValue& v) {
  using Kind = JsonValue::Kind;
  using NumRep = JsonValue::NumRep;
  switch (v.kind_) {
    case Kind::Null: return value(nullptr);
    case Kind::Bool: return value(v.bool_);
    case Kind::Number:
      if (v.rep_ == NumRep::Int64) return value(static_cast<long long>(v.ibits_));
      if (v.rep_ == NumRep::Uint64) return value(static_cast<unsigned long long>(v.ibits_));
      return value(v.num_);
    case Kind::String: return value(std::string_view(v.str_));
    case Kind::Array:
      begin_array();
      for (const JsonValue& e : v.elements_) value(e);
      return end_array();
    case Kind::Object:
      begin_object();
      for (const auto& [k, m] : v.members_) key(k).value(m);
      return end_object();
  }
  return *this;
}

void JsonValue::write(std::ostream& os, int indent) const {
  const std::string text = dump(indent);
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

std::string JsonValue::dump(int indent) const {
  JsonWriter w(indent);
  w.value(*this);
  return w.take();
}

JsonValue JsonValue::parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace opiso::obs
