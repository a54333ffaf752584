#pragma once
// Minimal JSON document model for the observability layer.
//
// Everything the obs subsystem emits (metrics snapshots, run reports,
// bench trajectories) is rendered by one formatter, JsonWriter, which
// appends tokens to one buffer. A document is either built as a
// JsonValue tree and rendered with dump()/write(), or streamed straight
// into a JsonWriter from the caller's own structs (the run report);
// both give the same bytes. parse() is the matching reader so reports
// are round-trippable artifacts — tests and downstream tooling can load
// what a run wrote without an external dependency. Objects preserve
// insertion order so reports diff cleanly between runs.
//
// Numbers constructed from integral types keep an exact int64/uint64
// representation that survives dump() → parse() round trips, so large
// counters (e.g. sim.cycles over a long sweep, which exceed 2^53) never
// lose precision through a double. Numbers constructed from doubles
// stay doubles; integral double values within the exact range still
// print without a fractional part.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace opiso::obs {

class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  /// How a Number is stored. Integral constructors keep the exact
  /// value; as_number() converts on demand.
  enum class NumRep { Double, Int64, Uint64 };

  JsonValue() = default;  // null
  JsonValue(bool b) : kind_(Kind::Bool), bool_(b) {}
  JsonValue(double d) : kind_(Kind::Number), num_(d) {}
  JsonValue(int i) : JsonValue(static_cast<long long>(i)) {}
  JsonValue(unsigned i) : JsonValue(static_cast<unsigned long long>(i)) {}
  JsonValue(long i) : JsonValue(static_cast<long long>(i)) {}
  JsonValue(long long i)
      : kind_(Kind::Number), rep_(NumRep::Int64), num_(static_cast<double>(i)),
        ibits_(static_cast<std::uint64_t>(i)) {}
  JsonValue(unsigned long i) : JsonValue(static_cast<unsigned long long>(i)) {}
  JsonValue(unsigned long long i)
      : kind_(Kind::Number), rep_(NumRep::Uint64), num_(static_cast<double>(i)), ibits_(i) {}
  JsonValue(const char* s) : kind_(Kind::String), str_(s) {}
  JsonValue(std::string_view s) : kind_(Kind::String), str_(s) {}
  JsonValue(std::string s) : kind_(Kind::String), str_(std::move(s)) {}

  [[nodiscard]] static JsonValue array() {
    JsonValue v;
    v.kind_ = Kind::Array;
    return v;
  }
  [[nodiscard]] static JsonValue object() {
    JsonValue v;
    v.kind_ = Kind::Object;
    return v;
  }

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::Null; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::Bool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::Number; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::String; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::Array; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::Object; }

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;

  /// Exact-integer interface. is_integer() is true for numbers built
  /// from (or parsed as) integral values; as_int64/as_uint64 throw when
  /// the stored value does not fit the requested range (including
  /// non-integral doubles).
  [[nodiscard]] bool is_integer() const { return kind_ == Kind::Number && rep_ != NumRep::Double; }
  [[nodiscard]] NumRep num_rep() const { return rep_; }
  [[nodiscard]] std::int64_t as_int64() const;
  [[nodiscard]] std::uint64_t as_uint64() const;

  /// Object access: insert-or-get (mutable) / lookup (const, throws on
  /// a missing key). A null value silently becomes an object on the
  /// first mutable access so literal-style building works.
  JsonValue& operator[](std::string_view key);
  [[nodiscard]] const JsonValue& at(std::string_view key) const;
  [[nodiscard]] bool contains(std::string_view key) const;

  /// Array access. A null value becomes an array on the first push.
  void push_back(JsonValue v);
  [[nodiscard]] const JsonValue& at(std::size_t index) const;

  /// Number of elements (array) or members (object); 0 otherwise.
  [[nodiscard]] std::size_t size() const;

  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }
  [[nodiscard]] const std::vector<JsonValue>& elements() const { return elements_; }

  /// Serialize through JsonWriter. indent = 0 → compact one-liner;
  /// indent > 0 → pretty-printed with that many spaces per level.
  /// write() renders the whole document, then makes one os.write.
  [[nodiscard]] std::string dump(int indent = 0) const;
  void write(std::ostream& os, int indent = 0) const;

  /// Parse a complete JSON document. Throws opiso::ParseError on
  /// malformed input or trailing garbage.
  [[nodiscard]] static JsonValue parse(std::string_view text);

 private:
  friend class JsonWriter;

  Kind kind_ = Kind::Null;
  NumRep rep_ = NumRep::Double;
  bool bool_ = false;
  double num_ = 0.0;
  std::uint64_t ibits_ = 0;  ///< exact value for Int64 (two's complement) / Uint64
  std::string str_;
  std::vector<JsonValue> elements_;                          // Array
  std::vector<std::pair<std::string, JsonValue>> members_;   // Object
};

/// Renders JSON text into one string, token by token: the repo's one
/// JSON formatter. The layout is fixed by the indent: with indent > 0,
/// each element of a container, and the closing bracket of a non-empty
/// one, starts on a new line indented `indent` spaces per level; an
/// empty container is {} or []; a key is followed by ": " (indent > 0)
/// or ":" (indent <= 0).
///
/// Numbers: integral types keep their exact Int64/Uint64 form; a double
/// that is not finite is null, one that is integral with |d| < 2^53
/// prints as an integer (so -0.0 is 0), and any other prints the 17
/// significant digits of printf's %.17g. Strings escape ", \, \n, \r
/// and \t, write every other byte below 0x20 as \u00xx and pass every
/// other byte (DEL, UTF-8) through.
///
/// The caller balances begin_/end_ calls and gives each object member
/// its key() first; the writer does not check the nesting.
class JsonWriter {
 public:
  explicit JsonWriter(int indent = 0) : indent_(indent) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  /// The key of the next object member; its value follows.
  JsonWriter& key(std::string_view k);

  // One value per JSON kind. The overloads mirror JsonValue's
  // constructors, so a string literal is a string (never a bool) and
  // each integral type keeps its signedness.
  JsonWriter& value(std::nullptr_t);
  JsonWriter& value(bool b);
  JsonWriter& value(double d);
  JsonWriter& value(int i) { return value(static_cast<long long>(i)); }
  JsonWriter& value(long i) { return value(static_cast<long long>(i)); }
  JsonWriter& value(long long i);
  JsonWriter& value(unsigned i) { return value(static_cast<unsigned long long>(i)); }
  JsonWriter& value(unsigned long i) { return value(static_cast<unsigned long long>(i)); }
  JsonWriter& value(unsigned long long i);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(const std::string& s) { return value(std::string_view(s)); }
  JsonWriter& value(std::string_view s);
  /// A whole subtree.
  JsonWriter& value(const JsonValue& v);

  /// The text rendered so far.
  [[nodiscard]] const std::string& str() const { return out_; }
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  /// Before a key, or a value that has no key: the comma after the
  /// previous element and the new line.
  void separate();
  void newline(std::size_t depth);
  void escaped(std::string_view s);
  void close(char bracket);

  std::string out_;
  int indent_;
  std::vector<bool> nonempty_;  ///< per open container: an element was written
  bool after_key_ = false;
};

}  // namespace opiso::obs
