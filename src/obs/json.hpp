#pragma once
// Minimal JSON document model for the observability layer.
//
// Everything the obs subsystem emits (metrics snapshots, run reports,
// bench trajectories) is built as a JsonValue tree and serialized with
// dump(); parse() is the matching reader so reports are round-trippable
// artifacts — tests and downstream tooling can load what a run wrote
// without an external dependency. Objects preserve insertion order so
// reports diff cleanly between runs.
//
// Numbers constructed from integral types keep an exact int64/uint64
// representation that survives dump() → parse() round trips, so large
// counters (e.g. sim.cycles over a long sweep, which exceed 2^53) never
// lose precision through a double. Numbers constructed from doubles
// stay doubles; integral double values within the exact range still
// print without a fractional part.

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

  /// Serialize. indent = 0 → compact one-liner; indent > 0 →
  /// pretty-printed with that many spaces per level.
  [[nodiscard]] std::string dump(int indent = 0) const;
  void write(std::ostream& os, int indent = 0) const;

  /// Parse a complete JSON document. Throws opiso::ParseError on
  /// malformed input or trailing garbage.
  [[nodiscard]] static JsonValue parse(std::string_view text);

 private:
  void write_indented(std::ostream& os, int indent, int depth) const;

  Kind kind_ = Kind::Null;
  NumRep rep_ = NumRep::Double;
  bool bool_ = false;
  double num_ = 0.0;
  std::uint64_t ibits_ = 0;  ///< exact value for Int64 (two's complement) / Uint64
  std::string str_;
  std::vector<JsonValue> elements_;                          // Array
  std::vector<std::pair<std::string, JsonValue>> members_;   // Object
};

}  // namespace opiso::obs
