// Report diff: schema-aware, tolerance-aware structural comparison —
// the core of the determinism and bench/golden CI gates.

#include <gtest/gtest.h>

#include <sstream>

#include "obs/report_diff.hpp"
#include "util/error.hpp"

namespace opiso::obs {
namespace {

ToleranceSpec spec_from(const std::string& rules_json) {
  return ToleranceSpec::parse(
      JsonValue::parse(R"({"schema": "opiso.report_tolerances/v1", "rules": )" + rules_json +
                       "}"));
}

TEST(ReportDiff, IdenticalDocumentsProduceNoEntries) {
  const JsonValue a = JsonValue::parse(
      R"({"schema": "opiso.sweep/v1", "tasks": [{"design": "fig1", "toggles": 123}],
          "totals": {"tasks": 1}})");
  EXPECT_TRUE(diff_reports(a, a).empty());
}

TEST(ReportDiff, ValueDivergenceListsDottedPath) {
  const JsonValue a = JsonValue::parse(R"({"tasks": [{"power_mw": 1.0}]})");
  const JsonValue b = JsonValue::parse(R"({"tasks": [{"power_mw": 2.0}]})");
  const std::vector<DiffEntry> d = diff_reports(a, b);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].path, "tasks.0.power_mw");
  EXPECT_EQ(d[0].kind, "value");
  EXPECT_DOUBLE_EQ(d[0].delta, 1.0);

  std::ostringstream os;
  print_diff(os, d);
  EXPECT_NE(os.str().find("tasks.0.power_mw"), std::string::npos);
}

TEST(ReportDiff, SchemaMismatchIsItsOwnKindAndLeads) {
  const JsonValue a =
      JsonValue::parse(R"({"x": 1, "schema": "opiso.sweep/v1"})");
  const JsonValue b =
      JsonValue::parse(R"({"x": 2, "schema": "opiso.run_report/v1"})");
  const std::vector<DiffEntry> d = diff_reports(a, b);
  ASSERT_GE(d.size(), 2u);
  EXPECT_EQ(d[0].kind, "schema");
  EXPECT_EQ(d[0].path, "schema");
}

TEST(ReportDiff, MissingExtraAndLength) {
  const JsonValue a = JsonValue::parse(R"({"only_a": 1, "arr": [1, 2]})");
  const JsonValue b = JsonValue::parse(R"({"only_b": 2, "arr": [1]})");
  const std::vector<DiffEntry> d = diff_reports(a, b);
  ASSERT_EQ(d.size(), 3u);
  EXPECT_EQ(d[0].path, "only_a");
  EXPECT_EQ(d[0].kind, "missing");
  EXPECT_EQ(d[1].path, "arr");
  EXPECT_EQ(d[1].kind, "length");
  EXPECT_EQ(d[2].path, "only_b");
  EXPECT_EQ(d[2].kind, "extra");
}

TEST(ReportDiff, SubsetModeSkipsBOnlyKeys) {
  const JsonValue golden = JsonValue::parse(R"({"summary": {"pct": 10.0}})");
  const JsonValue full = JsonValue::parse(
      R"({"summary": {"pct": 10.0, "extra_detail": 1}, "metrics": {}})");
  DiffOptions options;
  options.subset = true;
  EXPECT_TRUE(diff_reports(golden, full, {}, options).empty());
  // But A-side keys must still exist in B.
  const JsonValue incomplete = JsonValue::parse(R"({"metrics": {}})");
  const std::vector<DiffEntry> d = diff_reports(golden, incomplete, {}, options);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].kind, "missing");
}

TEST(ReportDiff, AbsAndRelTolerancesAccept) {
  const JsonValue a = JsonValue::parse(R"({"rows": [{"pct": 33.0}], "p": 100.0})");
  const JsonValue b = JsonValue::parse(R"({"rows": [{"pct": 35.0}], "p": 100.00001})");
  // No rules: both fields diverge.
  EXPECT_EQ(diff_reports(a, b).size(), 2u);
  const ToleranceSpec spec =
      spec_from(R"([{"path": "rows.*.pct", "abs": 3.0}, {"path": "p", "rel": 1e-6}])");
  EXPECT_TRUE(diff_reports(a, b, spec).empty());
  // Tighter bounds reject again, and the entry carries what was allowed.
  const ToleranceSpec tight = spec_from(R"([{"path": "rows.*.pct", "abs": 1.0}])");
  const std::vector<DiffEntry> d = diff_reports(a, b, tight);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0].path, "rows.0.pct");
  EXPECT_DOUBLE_EQ(d[0].allowed, 1.0);
}

TEST(ReportDiff, UnmatchedDiffNamesTheNearestRule) {
  const ToleranceSpec spec = spec_from(R"([{"path": "summary.power_before_*", "abs": 0.5}])");
  // No rule covers power_after_mw; the glob that shares its first
  // segment is the hint.
  const JsonValue a = JsonValue::parse(R"({"summary": {"power_after_mw": 1.0}})");
  const JsonValue b = JsonValue::parse(R"({"summary": {"power_after_mw": 2.0}})");
  std::vector<DiffEntry> d = diff_reports(a, b, spec);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].nearest_rule, "summary.power_before_*");
  std::ostringstream os;
  print_diff(os, d);
  EXPECT_NE(os.str().find("[no tolerance rule matched; nearest glob: summary.power_before_*]"),
            std::string::npos)
      << os.str();

  // No rule shares the path's first segment: no hint.
  d = diff_reports(JsonValue::parse(R"({"totals": {"power_after_mw": 1.0}})"),
                   JsonValue::parse(R"({"totals": {"power_after_mw": 2.0}})"), spec);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].nearest_rule, "");

  // A matched rule that rejects the drift carries no hint either.
  d = diff_reports(JsonValue::parse(R"({"summary": {"power_before_mw": 1.0}})"),
                   JsonValue::parse(R"({"summary": {"power_before_mw": 2.0}})"), spec);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].nearest_rule, "");
  os.str("");
  print_diff(os, d);
  EXPECT_EQ(os.str().find("nearest glob"), std::string::npos) << os.str();

  // Nor does a schema mismatch, even where a rule shares its segment.
  const ToleranceSpec star = spec_from(R"([{"path": "*.wall_ms", "ignore": true}])");
  d = diff_reports(JsonValue::parse(R"({"schema": "opiso.sweep/v1"})"),
                   JsonValue::parse(R"({"schema": "opiso.run_report/v1"})"), star);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].kind, "schema");
  EXPECT_EQ(d[0].nearest_rule, "");
}

TEST(ReportDiff, IgnoreRulesSuppressSubtreesAndPresence) {
  const JsonValue a = JsonValue::parse(R"({"metrics": {"sim": {"ns": 1}}, "x": 1})");
  const JsonValue b = JsonValue::parse(R"({"x": 1})");
  const ToleranceSpec spec = spec_from(R"([{"path": "metrics.**", "ignore": true},
                                           {"path": "metrics", "ignore": true}])");
  EXPECT_TRUE(diff_reports(a, b, spec).empty());
}

TEST(ReportDiff, TrailingGlobMatchesAnySuffix) {
  const JsonValue a = JsonValue::parse(R"({"prof": {"deep": {"er": 1.0}}})");
  const JsonValue b = JsonValue::parse(R"({"prof": {"deep": {"er": 2.0}}})");
  EXPECT_EQ(diff_reports(a, b).size(), 1u);
  EXPECT_TRUE(diff_reports(a, b, spec_from(R"([{"path": "prof.**", "ignore": true}])")).empty());
  // In-segment glob.
  const JsonValue c = JsonValue::parse(R"({"power_before_mw": 1.0})");
  const JsonValue e = JsonValue::parse(R"({"power_before_mw": 1.5})");
  EXPECT_TRUE(diff_reports(c, e, spec_from(R"([{"path": "power_*", "abs": 1.0}])")).empty());
}

TEST(ReportDiff, GlobMatchingTable) {
  // Table-driven matcher contract, exercised through ignore rules: a
  // matching pattern suppresses the divergence at `path`, a
  // non-matching one leaves it. Covers `**` matching zero segments
  // mid-pattern, multiple `**`, `*` vs `**`, and empty path segments
  // (consecutive dots are real segments here, not separators to fold).
  struct Case {
    const char* pattern;
    const char* key;  // object key whose value diverges (dots nest)
    bool matches;
  };
  const Case kCases[] = {
      // `**` as zero segments mid-pattern: a.**.z covers a.z ...
      {"a.**.z", "a.z", true},
      // ... one segment ...
      {"a.**.z", "a.b.z", true},
      // ... and several.
      {"a.**.z", "a.b.c.d.z", true},
      {"a.**.z", "a.b.c.tail", false},
      // `**` must not absorb the required trailing literal.
      {"a.**.z", "a", false},
      // Leading `**`.
      {"**.z", "z", true},
      {"**.z", "a.b.z", true},
      {"**.z", "a.b.y", false},
      // Double `**`.
      {"**.m.**", "m", true},
      {"**.m.**", "a.m.b.c", true},
      {"**.m.**", "a.n.b", false},
      // Bare `**` matches everything, including the root-level key.
      {"**", "anything.at.all", true},
      // `*` is exactly one segment — never zero, never two.
      {"a.*.z", "a.b.z", true},
      {"a.*.z", "a.z", false},
      {"a.*.z", "a.b.c.z", false},
      // In-segment glob combined with `**`.
      {"**.power_*", "deep.down.power_mw", true},
      {"**.power_*", "deep.down.area_um2", false},
      // Empty segments (an ignore rule author may write "a..b")
      // participate literally instead of crashing or folding.
      {"a..b", "a.b", false},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(std::string(c.pattern) + " vs " + c.key);
    // Build nested docs so that the dotted path `c.key` exists and
    // diverges between a and b.
    JsonValue a(1.0);
    JsonValue b(2.0);
    const std::string key(c.key);
    std::vector<std::string> segs;
    std::size_t start = 0;
    while (true) {
      const std::size_t dot = key.find('.', start);
      segs.push_back(key.substr(start, dot - start));
      if (dot == std::string::npos) break;
      start = dot + 1;
    }
    for (auto it = segs.rbegin(); it != segs.rend(); ++it) {
      JsonValue na = JsonValue::object();
      JsonValue nb = JsonValue::object();
      na[*it] = std::move(a);
      nb[*it] = std::move(b);
      a = std::move(na);
      b = std::move(nb);
    }
    const ToleranceSpec spec =
        spec_from(std::string(R"([{"path": ")") + c.pattern + R"(", "ignore": true}])");
    EXPECT_EQ(diff_reports(a, b, spec).empty(), c.matches);
  }
}

TEST(ReportDiff, EmptySegmentsInPathsDiffCleanly) {
  // A document key containing no characters produces an empty path
  // segment; matching and reporting must handle it.
  JsonValue a = JsonValue::object();
  JsonValue b = JsonValue::object();
  JsonValue inner_a = JsonValue::object();
  JsonValue inner_b = JsonValue::object();
  inner_a[""] = JsonValue(1.0);
  inner_b[""] = JsonValue(2.0);
  a["x"] = std::move(inner_a);
  b["x"] = std::move(inner_b);
  const std::vector<DiffEntry> d = diff_reports(a, b);
  ASSERT_EQ(d.size(), 1u);
  // The empty segment is ignorable by an exact-spelling rule.
  EXPECT_TRUE(diff_reports(a, b, spec_from(R"([{"path": "x.", "ignore": true}])")).empty());
  // `x.*` also covers it: `*` matches one segment, even an empty one.
  EXPECT_TRUE(diff_reports(a, b, spec_from(R"([{"path": "x.*", "ignore": true}])")).empty());
}

TEST(ReportDiff, ExactIntegersBeyondDoublePrecision) {
  // 2^53 and 2^53+1 collapse to the same double; the diff must still
  // see them as different.
  const JsonValue a = JsonValue::parse(R"({"toggles": 9007199254740992})");
  const JsonValue b = JsonValue::parse(R"({"toggles": 9007199254740993})");
  const std::vector<DiffEntry> d = diff_reports(a, b);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].path, "toggles");
  // And equal giant integers match (uint64 territory).
  const JsonValue u = JsonValue::parse(R"({"toggles": 18446744073709551615})");
  EXPECT_TRUE(diff_reports(u, u).empty());
}

TEST(ReportDiff, TypeMismatchesAreStructural) {
  const JsonValue a = JsonValue::parse(R"({"v": 1})");
  const JsonValue b = JsonValue::parse(R"({"v": "1"})");
  const std::vector<DiffEntry> d = diff_reports(a, b);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].kind, "type");
}

TEST(ReportDiff, FirstMatchingRuleWins) {
  const JsonValue a = JsonValue::parse(R"({"x": 1.0})");
  const JsonValue b = JsonValue::parse(R"({"x": 5.0})");
  // The first (narrow) rule matches and rejects; the later permissive
  // rule never applies.
  const ToleranceSpec spec =
      spec_from(R"([{"path": "x", "abs": 1.0}, {"path": "x", "abs": 100.0}])");
  EXPECT_EQ(diff_reports(a, b, spec).size(), 1u);
}

TEST(ReportDiff, ToleranceSpecParseRejectsBadInput) {
  EXPECT_THROW(ToleranceSpec::parse(JsonValue::parse(R"({"schema": "nope"})")), Error);
  EXPECT_THROW(
      ToleranceSpec::parse(JsonValue::parse(
          R"({"schema": "opiso.report_tolerances/v1", "rules": [{"abs": 1.0}]})")),
      Error);
  // A rule key other than path, ignore, abs and rel fails loudly (a
  // typo, or a one-sided rule from an old tolerance file) instead of
  // leaving the path compared exactly.
  const auto parse_error = [](const std::string& rules_json) -> std::string {
    try {
      (void)spec_from(rules_json);
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrCode::ParseSyntax);
      return e.what();
    }
    ADD_FAILURE() << "accepted " << rules_json;
    return "";
  };
  EXPECT_EQ(parse_error(R"([{"path": "x", "abs": 1.0}, {"path": "y", "absolute": 1.0}])"),
            "tolerance file: rule 1: unknown key \"absolute\"");
  EXPECT_EQ(parse_error(R"([{"path": "benches.*.wall_ms", "rel_increase": 0.10}])"),
            "tolerance file: rule 0: unknown key \"rel_increase\"");
}

}  // namespace
}  // namespace opiso::obs
