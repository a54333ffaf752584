#pragma once
// Schema-aware, tolerance-aware structural diff of report documents.
//
// `opiso report diff a.json b.json [--tolerances FILE] [--subset]`
// compares two JSON reports (run reports, sweep reports, BENCH_*.json
// tables, metrics snapshots — anything JsonValue parses) field by
// field and lists every divergence with its dotted path. CI uses it as
// the comparison core of the determinism job (zero tolerance: the diff
// is empty iff the documents are semantically identical) and of the
// bench/golden-report gates (committed expected subsets + a tolerance
// file replace the old ad-hoc Python comparison).
//
// Semantics:
//  - Objects compare by key (order-insensitive — key order is a
//    serialization detail); arrays compare index-wise and must match in
//    length. Missing/extra keys are reported unless subset mode or an
//    ignore rule applies.
//  - Numbers compare exactly when both sides carry exact integer
//    representations; otherwise as doubles under the matched
//    tolerance rule (|a-b| <= abs  OR  |a-b| <= rel·max(|a|,|b|)).
//  - "schema" keys are compared first at every level they appear; a
//    schema mismatch is reported as kind "schema" so the caller knows
//    the documents are not even the same artifact type.
//  - Subset mode (--subset): keys present only in B are fine — A is an
//    expected subset (a committed golden) of a full generated report.
//
// Tolerance file (schema opiso.report_tolerances/v1):
//   {"schema": "opiso.report_tolerances/v1",
//    "rules": [{"path": "rows.*.power_reduction_pct", "abs": 3.0},
//              {"path": "summary.power_*", "rel": 1e-6},
//              {"path": "metrics.**", "ignore": true}]}
// A rule holds only `path`, `ignore`, `abs` and `rel`; any other key
// is a parse error. Paths are dotted; segments match literally, `*`
// matches exactly one segment (array indices are segments), a glob
// `*`/prefix inside a segment matches within it, and `**` — anywhere
// in the pattern — matches zero or more whole segments (`a.**.z`
// covers `a.z`, `a.b.z`, `a.b.c.z`). First matching rule wins; no
// match means exact comparison.

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace opiso::obs {

struct ToleranceRule {
  std::vector<std::string> pattern;  ///< dotted path, split into segments
  bool ignore = false;
  double abs_tol = 0.0;
  double rel_tol = 0.0;
};

class ToleranceSpec {
 public:
  ToleranceSpec() = default;

  /// Parse a tolerance document. Throws opiso::Error on an unexpected
  /// schema, a malformed rule or a rule key it does not know.
  [[nodiscard]] static ToleranceSpec parse(const JsonValue& doc);

  void add_rule(ToleranceRule rule) { rules_.push_back(std::move(rule)); }

  /// First rule whose pattern matches the dotted path, or null.
  [[nodiscard]] const ToleranceRule* match(const std::vector<std::string>& path) const;

  /// Dotted pattern of the rule that comes closest to matching `path`
  /// (longest glob-aware shared segment prefix; ties break toward the
  /// pattern whose length is nearest the path's), or "" when no rule
  /// matches even the first segment. print_diff uses it to hint at the
  /// tolerance glob that *almost* covered a diverging field — usually
  /// a one-segment typo or a missing `*` level in the rule file.
  [[nodiscard]] std::string nearest_pattern(const std::vector<std::string>& path) const;

 private:
  std::vector<ToleranceRule> rules_;
};

struct DiffEntry {
  std::string path;  ///< dotted path of the diverging field
  /// "schema" | "type" | "missing" (in B) | "extra" (in B) | "length" |
  /// "value"
  std::string kind;
  std::string a;  ///< rendered A-side value ("" when absent)
  std::string b;
  double delta = 0.0;    ///< |a-b| for numeric value diffs
  double allowed = 0.0;  ///< tolerance that was exceeded (0 = exact)
  /// When no tolerance rule matched this path, the nearest rule glob
  /// that almost did (see ToleranceSpec::nearest_pattern); "" otherwise.
  std::string nearest_rule;
};

struct DiffOptions {
  /// A is an expected subset: keys present only in B are not reported.
  bool subset = false;
};

/// Structural diff; empty result means the documents match under the
/// spec and options.
[[nodiscard]] std::vector<DiffEntry> diff_reports(const JsonValue& a, const JsonValue& b,
                                                  const ToleranceSpec& spec = {},
                                                  const DiffOptions& options = {});

/// Human-readable per-field listing (one line per entry).
void print_diff(std::ostream& os, const std::vector<DiffEntry>& entries);

}  // namespace opiso::obs
