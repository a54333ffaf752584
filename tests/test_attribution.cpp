// The run report's candidate rows: each row's Eq. 1-5 terms, summed per
// kind in the order they are listed, equal the row's totals exactly —
// the accounting identity the term ledger exists to prove — and the
// report alone reproduces the candidate table and the explain
// narrative. Runs the paper's three designs under two bank styles;
// labeled bench-smoke so the bench gate also exercises it.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <sstream>
#include <tuple>

#include "designs/designs.hpp"
#include "isolation/algorithm.hpp"
#include "obs/run_report.hpp"

namespace opiso::obs {
namespace {

IsolationResult run_isolation(const Netlist& nl, const IsolationOptions& opt) {
  return run_operand_isolation(
      nl, [] { return std::make_unique<UniformStimulus>(7); }, opt);
}

IsolationOptions options(IsolationStyle style) {
  IsolationOptions opt;
  opt.style = style;
  opt.sim_cycles = 512;
  return opt;
}

bool kind_is(const std::string& kind, const char* prefix) {
  return kind.rfind(prefix, 0) == 0;
}

/// The report as a reader sees it: written out and parsed back.
JsonValue written(const IsolationResult& res, const IsolationOptions& opt) {
  return JsonValue::parse(build_run_report(res, opt).dump(1));
}

TEST(Attribution, TermsSumToReportedTotals) {
  const std::vector<std::pair<std::string, std::function<Netlist()>>> designs = {
      {"fig1", [] { return make_fig1(); }},
      {"design1", [] { return make_design1(); }},
      {"design2", [] { return make_design2(); }},
  };
  for (const auto& [dname, make] : designs) {
    for (const IsolationStyle style : {IsolationStyle::And, IsolationStyle::Latch}) {
      SCOPED_TRACE(dname + "/" + std::string(isolation_style_name(style)));
      const IsolationOptions opt = options(style);
      const IsolationResult res = run_isolation(make(), opt);
      ASSERT_FALSE(res.iterations.empty());
      const JsonValue doc = written(res, opt);
      EXPECT_FALSE(doc.contains("power_attribution"));

      // The estimator summed the same addends in the same order, so the
      // sums match the reported totals bit for bit, through the text.
      bool any_terms = false;
      for (const JsonValue& it : doc.at("iterations").elements()) {
        for (const JsonValue& c : it.at("candidates").elements()) {
          ASSERT_TRUE(c.contains("terms")) << c.at("cell").as_string();
          double primary = 0.0, secondary = 0.0, overhead = 0.0;
          for (const JsonValue& t : c.at("terms").elements()) {
            const std::string kind = t.at("kind").as_string();
            const double mw = t.at("mw").as_number();
            if (kind_is(kind, "primary.")) primary += mw;
            else if (kind_is(kind, "secondary.")) secondary += mw;
            else if (kind_is(kind, "overhead.")) overhead += mw;
            else ADD_FAILURE() << "unknown term kind " << kind;
            any_terms = true;
          }
          EXPECT_EQ(primary, c.at("primary_mw").as_number()) << c.at("cell").as_string();
          EXPECT_EQ(secondary, c.at("secondary_mw").as_number()) << c.at("cell").as_string();
          EXPECT_EQ(overhead, c.at("overhead_mw").as_number()) << c.at("cell").as_string();
        }
      }
      EXPECT_TRUE(any_terms);
    }
  }
}

TEST(Attribution, TermsCarryModelProvenance) {
  const IsolationResult res = run_isolation(make_fig1(), options(IsolationStyle::And));
  bool saw_primary = false;
  bool saw_overhead = false;
  for (const IterationLog& log : res.iterations) {
    for (const CandidateEvaluation& ev : log.evaluations) {
      for (const SavingsTerm& t : ev.attribution) {
        if (kind_is(t.kind, "primary.")) {
          saw_primary = true;
          EXPECT_GE(t.probability, 0.0);
          EXPECT_LE(t.probability, 1.0);
        }
        if (kind_is(t.kind, "overhead.")) saw_overhead = true;
        if (kind_is(t.kind, "secondary.")) {
          EXPECT_FALSE(t.fanout.empty());
          EXPECT_GE(t.fanout_port, 0);
        }
      }
    }
  }
  EXPECT_TRUE(saw_primary);
  EXPECT_TRUE(saw_overhead);
}

/// `v` as the narrative prints it.
std::string g6(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

TEST(Attribution, ReportAloneReproducesTheTextViews) {
  // A slack threshold that vetoes some candidates puts veto flags in
  // the table as well.
  for (const double threshold : {0.0, 16.5}) {
    IsolationOptions opt = options(IsolationStyle::And);
    opt.slack_threshold_ns = threshold;
    const IsolationResult res = run_isolation(make_fig1(), opt);
    ASSERT_FALSE(res.iterations.empty());
    const JsonValue report = written(res, opt);

    std::ostringstream table, built_table;
    write_iteration_table(table, report);
    write_iteration_table(built_table, build_run_report(res, opt));
    EXPECT_EQ(table.str(), built_table.str());
    EXPECT_NE(table.str().find("iteration 0"), std::string::npos);
    EXPECT_EQ(table.str().find("[slack veto]") != std::string::npos, threshold > 0.0);

    for (const CandidateEvaluation& ev : res.iterations[0].evaluations) {
      std::ostringstream narrative;
      EXPECT_TRUE(write_candidate_narrative(narrative, report, ev.cell_name));
      const std::string text = narrative.str();
      for (const std::string& line :
           {"iteration 0: candidate '" + ev.cell_name + "'",
            "primary savings " + g6(ev.primary_mw) + " mW (Eq. 1-3)",
            "secondary savings " + g6(ev.secondary_mw) + " mW (Eq. 4-5",
            "isolation overhead " + g6(ev.overhead_mw) + " mW",
            "h = " + g6(ev.h), "decision: " + std::string(candidate_decision(ev))}) {
        EXPECT_NE(text.find(line), std::string::npos) << line << "\n" << text;
      }
    }

    std::ostringstream unknown;
    EXPECT_FALSE(write_candidate_narrative(unknown, report, "no_such_cell"));
    EXPECT_NE(unknown.str().find("known candidates"), std::string::npos);
    EXPECT_NE(unknown.str().find(res.iterations[0].evaluations[0].cell_name), std::string::npos);
  }
}

TEST(Attribution, TableShowsEveryDecisionFlag) {
  // Every (isolated, legal, slack-vetoed) combination Algorithm 1 can
  // produce, with the table's markers: an isolated candidate is legal
  // and not vetoed, and a candidate is vetoed exactly when its estimated
  // slack is below the threshold (0 ns). The decision of an illegal,
  // vetoed candidate names only "illegal".
  const struct {
    bool isolated, legal, vetoed;
    const char* marks;
  } rows[] = {{true, true, false, "  + c0 "},
              {false, true, false, "h=0.0000  AS="},
              {false, true, true, "h=0.0000 [slack veto]  AS="},
              {false, false, false, "h=0.0000 [illegal]  AS="},
              {false, false, true, "h=0.0000 [slack veto] [illegal]  AS="}};
  IsolationResult res;
  IterationLog& log = res.iterations.emplace_back();
  for (const auto& row : rows) {
    CandidateEvaluation& ev = log.evaluations.emplace_back();
    ev.cell_name = "c" + std::to_string(log.evaluations.size() - 1);
    ev.isolated_now = row.isolated;
    ev.legal = row.legal;
    ev.slack_vetoed = row.vetoed;
    ev.est_slack_after_ns = row.vetoed ? -1.0 : 1.0;
  }
  std::ostringstream table;
  write_iteration_table(table, written(res, IsolationOptions{}));
  std::istringstream lines(table.str());
  std::string line;
  std::getline(lines, line);  // the iteration header
  for (const auto& row : rows) {
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find(row.marks), std::string::npos) << line;
    EXPECT_EQ(line.find("[slack veto]") != std::string::npos, row.vetoed) << line;
  }
}

TEST(Attribution, ViewsRejectWhatIsNotARunReport) {
  // Each damage is to the first row, whose narrative reads all of it.
  const IsolationOptions opt = options(IsolationStyle::And);
  const IsolationResult res = run_isolation(make_fig1(), opt);
  const std::string first = res.iterations.at(0).evaluations.at(0).cell_name;
  const std::string report = build_run_report(res, opt).dump(1);
  const auto damaged = [&report](const std::string& from, const std::string& to) {
    std::string text = report;
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return text.replace(at, from.size(), to);
  };
  // {document, what the error names, whether the table reads it too}
  const std::tuple<std::string, std::string, bool> cases[] = {
      {"{}", "found no schema", true},
      {"[1, 2]", "found no schema", true},
      {R"({"schema": "opiso.sweep/v1"})", "found 'opiso.sweep/v1'", true},
      {R"({"schema": "opiso.run_report/v1"})", "\"iterations\" must be an array of objects", true},
      {damaged("\"candidates\": [", "\"candidates\": [1, "), "\"candidates\" must be", true},
      {damaged("\"h\": ", "\"h\": \"x\", \"_\": "), "\"h\" must be a number", true},
      {damaged("\"block\": 0", "\"block\": 0.5"), "\"block\" must be an integer", true},
      {damaged("\"kind\": ", "\"_kind\": "), "\"kind\" must be a string", false},
  };
  for (const auto& [text, named, table_reads] : cases) {
    const JsonValue doc = JsonValue::parse(text);
    for (const bool narrative : {false, true}) {
      if (!narrative && !table_reads) continue;
      std::ostringstream os;
      try {
        if (narrative) (void)write_candidate_narrative(os, doc, first);
        else write_iteration_table(os, doc);
        ADD_FAILURE() << "accepted a report damaged to lack " << named;
      } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find(named), std::string::npos) << e.what();
        EXPECT_EQ(os.str(), "") << "printed part of a damaged report";
      }
    }
  }
}

}  // namespace
}  // namespace opiso::obs
