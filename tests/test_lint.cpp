// Tests for the static-analysis framework (`opiso lint`): one suite per
// pass, the registry/report plumbing, and the end-to-end contract that
// the bundled designs lint clean before isolation and stay clean after
// the transform — while a deliberately corrupted activation function is
// caught as lint.isolation_unsound and independently confirmed
// non-equivalent by the BDD checker.
#include <gtest/gtest.h>

#include <sstream>

#include "designs/designs.hpp"
#include "frontend/rtl_parser.hpp"
#include "isolation/algorithm.hpp"
#include "isolation/transform.hpp"
#include "lint/lint.hpp"
#include "verify/equiv.hpp"

namespace opiso {
namespace {

using lint::Finding;
using lint::LintOptions;
using lint::LintReport;
using lint::run_lint;

bool has_code(const LintReport& r, ErrCode code) {
  for (const Finding& f : r.findings) {
    if (f.code == code) return true;
  }
  return false;
}

const Finding* find_code(const LintReport& r, ErrCode code) {
  for (const Finding& f : r.findings) {
    if (f.code == code) return &f;
  }
  return nullptr;
}

LintOptions only(std::initializer_list<std::string> passes) {
  LintOptions opt;
  opt.only_passes.assign(passes);
  return opt;
}

// ---------------------------------------------------------------- comb_loop

TEST(LintCombLoop, DetectsCycleAndSkipsOrderDependentPasses) {
  Netlist nl;
  const NetId x = nl.add_input("x", 1);
  const NetId a = nl.add_binop(CellKind::And, "a", x, x);
  const NetId b = nl.add_binop(CellKind::And, "b", a, x);
  nl.reconnect_input(nl.net(a).driver, 1, b);  // a = x & b  ->  a -> b -> a
  nl.add_output("out", b);

  LintReport r = run_lint(nl);
  const Finding* f = find_code(r, ErrCode::LintCombLoop);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::Error);
  EXPECT_EQ(f->pass, "comb_loop");
  EXPECT_NE(f->message.find("combinational cycle"), std::string::npos);
  EXPECT_EQ(f->cells.size(), 2u);

  // Observability/STA-based passes must skip, with a note, not crash.
  bool saw_skip = false;
  for (const auto& p : r.passes) {
    if (p.pass == "dead_logic" || p.pass == "isolation_soundness" ||
        p.pass == "isolation_overhead") {
      EXPECT_TRUE(p.skipped) << p.pass;
      EXPECT_FALSE(p.note.empty()) << p.pass;
      saw_skip = true;
    }
  }
  EXPECT_TRUE(saw_skip);
  EXPECT_TRUE(r.fails(Severity::Error));
}

TEST(LintCombLoop, LargeRingDoesNotOverflowTheStack) {
  // A 20k-cell combinational ring: the Tarjan walk must be iterative —
  // a recursive DFS would blow the stack long before this size.
  Netlist nl;
  const NetId x = nl.add_input("x", 1);
  const NetId first = nl.add_unop(CellKind::Buf, "b0", x);
  NetId cur = first;
  for (int i = 1; i < 20000; ++i) {
    cur = nl.add_unop(CellKind::Buf, "b" + std::to_string(i), cur);
  }
  nl.reconnect_input(nl.net(first).driver, 0, cur);
  nl.add_output("out", cur);

  const auto sccs = combinational_sccs(nl);
  ASSERT_EQ(sccs.size(), 1u);
  EXPECT_EQ(sccs.front().size(), 20000u);
  // The rendering elides the middle of a huge cycle.
  EXPECT_NE(describe_comb_cycle(nl, sccs.front()).find("more"), std::string::npos);
}

TEST(LintCombLoop, SelfLoopIsReported) {
  Netlist nl;
  const NetId x = nl.add_input("x", 1);
  const NetId a = nl.add_binop(CellKind::Or, "a", x, x);
  nl.reconnect_input(nl.net(a).driver, 1, a);  // a = x | a
  nl.add_output("out", a);
  LintReport r = run_lint(nl, only({"comb_loop"}));
  const Finding* f = find_code(r, ErrCode::LintCombLoop);
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->message.find("self-loop"), std::string::npos);
}

TEST(LintCombLoop, ParserRejectsCyclicRtlWithStructuredDiagnostic) {
  const std::string text =
      "design loop\n"
      "input en\n"
      "latch a:8 = b when en\n"
      "latch b:8 = a when en\n"
      "output out = a\n";
  try {
    (void)parse_rtl(text);
    FAIL() << "cyclic design must not validate";
  } catch (const OpisoError& e) {
    EXPECT_EQ(e.code(), ErrCode::LintCombLoop);
    EXPECT_GT(e.input_line(), 0);
    EXPECT_NE(std::string(e.what()).find("rtl line"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("combinational cycle"), std::string::npos);
  }
}

TEST(LintCombLoop, LenientParseCarriesSourceLinesIntoFindings) {
  const std::string text =
      "design loop\n"
      "input en\n"
      "latch a:8 = b when en\n"
      "latch b:8 = a when en\n"
      "output out = a\n";
  SourceMap map;
  const Netlist nl = parse_rtl(text, RtlParseOptions{/*validate=*/false}, &map);
  LintReport r = run_lint(nl, {}, &map);
  const Finding* f = find_code(r, ErrCode::LintCombLoop);
  ASSERT_NE(f, nullptr);
  EXPECT_GT(f->source_line, 0);
  EXPECT_LE(f->source_line, 4);
}

// -------------------------------------------------------------------- width

TEST(LintWidth, FlagsMixedOperandWidths) {
  Netlist nl;
  const NetId a = nl.add_input("a", 8);
  const NetId b = nl.add_input("b", 16);
  const NetId s = nl.add_binop(CellKind::Add, "s", a, b);
  nl.add_output("out", s);
  LintReport r = run_lint(nl, only({"width"}));
  const Finding* f = find_code(r, ErrCode::LintWidth);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::Warning);
  EXPECT_NE(f->message.find("mixes operand widths"), std::string::npos);
  EXPECT_EQ(f->nets.size(), 2u);
}

TEST(LintWidth, FlagsTruncatingMultiplyAndDegenerateShift) {
  Netlist nl;
  const NetId a = nl.add_input("a", 33);
  const NetId b = nl.add_input("b", 33);
  (void)nl.add_output("p", nl.add_binop(CellKind::Mul, "m", a, b));
  const NetId c = nl.add_input("c", 8);
  (void)nl.add_output("z", nl.add_shift(CellKind::Shl, "sh", c, 8));
  LintReport r = run_lint(nl, only({"width"}));
  bool saw_mul = false;
  bool saw_shift = false;
  for (const Finding& f : r.findings) {
    if (f.message.find("truncates") != std::string::npos) saw_mul = true;
    if (f.message.find("constant 0") != std::string::npos) saw_shift = true;
  }
  EXPECT_TRUE(saw_mul);
  EXPECT_TRUE(saw_shift);
  EXPECT_FALSE(r.fails(Severity::Error));  // style findings are warnings
}

TEST(LintWidth, CleanDesignHasNoWidthFindings) {
  LintReport r = run_lint(make_fig1(8), only({"width"}));
  EXPECT_FALSE(has_code(r, ErrCode::LintWidth));
}

// ------------------------------------------------------------------ drivers

TEST(LintDrivers, FlagsUndrivenAndDanglingNets) {
  Netlist nl;
  const NetId x = nl.add_input("x", 8);
  const NetId floating = nl.add_net("floating", 8);
  const NetId g = nl.add_binop(CellKind::And, "g", floating, x);
  (void)g;  // g's output net feeds nothing -> dangling
  nl.add_output("out", x);

  LintReport r = run_lint(nl, only({"drivers"}));
  const Finding* undriven = find_code(r, ErrCode::LintUndriven);
  ASSERT_NE(undriven, nullptr);
  EXPECT_EQ(undriven->severity, Severity::Error);
  EXPECT_EQ(undriven->nets.front(), "floating");

  const Finding* dangling = find_code(r, ErrCode::LintDangling);
  ASSERT_NE(dangling, nullptr);
  EXPECT_EQ(dangling->severity, Severity::Warning);
  EXPECT_NE(dangling->message.find("drives nothing"), std::string::npos);
}

TEST(LintDrivers, CleanDesignsHaveNoDriverErrors) {
  // design2 carries a few intentionally dangling helper nets (warnings);
  // none of the bundled designs may have driver *errors*.
  for (const Netlist& nl : {make_fig1(8), make_design1(8), make_design2(8)}) {
    LintReport r = run_lint(nl, only({"drivers"}));
    EXPECT_EQ(r.count(Severity::Error), 0u);
  }
  EXPECT_TRUE(run_lint(make_fig1(8), only({"drivers"})).findings.empty());
}

// --------------------------------------------------------------- dead_logic

TEST(LintDeadLogic, FlagsStructurallyUnreachableLogic) {
  Netlist nl;
  const NetId x = nl.add_input("x", 8);
  (void)nl.add_binop(CellKind::Xor, "orphan", x, x);  // feeds nothing
  nl.add_output("out", x);
  LintReport r = run_lint(nl, only({"dead_logic"}));
  const Finding* f = find_code(r, ErrCode::LintDeadLogic);
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->message.find("unreachable"), std::string::npos);
  EXPECT_NE(f->cells.front().find("orphan"), std::string::npos);
}

TEST(LintDeadLogic, FlagsObservabilityConstantZero) {
  // The adder feeds the sel=1 leg of a mux whose select is tied to 0:
  // structurally connected, semantically never observed — exactly the
  // paper's "redundant computation" with activation function f = 0.
  Netlist nl;
  const NetId x = nl.add_input("x", 8);
  const NetId y = nl.add_input("y", 8);
  const NetId zero = nl.add_const("czero", 0, 1);
  const NetId p = nl.add_binop(CellKind::Add, "deadadd", x, y);
  const NetId m = nl.add_mux2("m", zero, y, p);  // sel=0 always picks y
  nl.add_output("out", m);
  LintReport r = run_lint(nl, only({"dead_logic"}));
  const Finding* f = find_code(r, ErrCode::LintDeadLogic);
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->message.find("never observed"), std::string::npos);
  EXPECT_NE(f->cells.front().find("deadadd"), std::string::npos);
}

TEST(LintDeadLogic, CleanOnFig1) {
  LintReport r = run_lint(make_fig1(8), only({"dead_logic"}));
  EXPECT_FALSE(has_code(r, ErrCode::LintDeadLogic));
}

// ------------------------------------------------------ isolation_soundness

struct IsolatedFig1 {
  Netlist nl;
  ExprPool pool;
  NetVarMap vars;
  IsolationRecord rec;

  explicit IsolatedFig1(unsigned width = 4) : nl(make_fig1(width)) {
    const ActivationAnalysis aa = derive_activation(nl, pool, vars);
    const CellId a1 = nl.net(nl.find_net("a1")).driver;
    rec = isolate_module(nl, pool, vars, a1, aa.activation_of(nl, a1), IsolationStyle::And);
    nl.validate();
  }
};

TEST(LintSoundness, ProvesCorrectTransformSound) {
  IsolatedFig1 d;
  LintReport r = run_lint(d.nl, only({"isolation_soundness"}));
  EXPECT_FALSE(has_code(r, ErrCode::LintIsolationUnsound)) << r.worst()->message;
  EXPECT_FALSE(has_code(r, ErrCode::LintIsolationUnproven));
}

TEST(LintSoundness, CatchesMutatedActivationFunction) {
  // Invert the AS net feeding the banks: the module is now blocked
  // exactly when it IS observed. The lint proof must fail, and the
  // independent sequential equivalence check must agree the transform
  // no longer preserves behaviour.
  IsolatedFig1 d;
  const NetId nas = d.nl.add_unop(CellKind::Not, "as_bug", d.rec.as_net);
  for (CellId bank : d.rec.bank_cells) d.nl.reconnect_input(bank, 1, nas);
  d.nl.validate();

  LintReport r = run_lint(d.nl, only({"isolation_soundness"}));
  const Finding* f = find_code(r, ErrCode::LintIsolationUnsound);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::Error);
  // Pinned byte for byte: the counterexample lists lint's variables in
  // the order the proof allocated them.
  EXPECT_EQ(f->message,
            "isolation of 'b:a1' via AS 'as_bug' is unsound: the output is observable while "
            "AS = 0 (e.g. G1=1, G0=1, S1=1, S0=1, S2=1)");
  EXPECT_TRUE(r.fails(Severity::Error));

  const EquivResult eq = check_isolation_equivalence(make_fig1(4), d.nl);
  EXPECT_FALSE(eq.equivalent);
}

TEST(LintSoundness, BlownBudgetDegradesToUnproven) {
  IsolatedFig1 d;
  LintOptions opt = only({"isolation_soundness"});
  opt.bdd = BddBudget{8, 0};  // too small for any real proof
  LintReport r = run_lint(d.nl, opt);
  const Finding* f = find_code(r, ErrCode::LintIsolationUnproven);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::Warning);
  EXPECT_NE(f->message.find("unproven"), std::string::npos);
  EXPECT_FALSE(r.fails(Severity::Error));  // degradation is not a failure
}

// ------------------------------------------------------- isolation_overhead

TEST(LintOverhead, FlagsBanksWithoutSlack) {
  IsolatedFig1 d(8);
  LintOptions opt = only({"isolation_overhead"});
  opt.delay.clock_period_ns = 0.5;  // impossibly tight clock
  LintReport r = run_lint(d.nl, opt);
  const Finding* f = find_code(r, ErrCode::LintIsolationOverhead);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::Warning);
  EXPECT_NE(f->message.find("gate levels deep"), std::string::npos);
}

TEST(LintOverhead, QuietUnderARelaxedClock) {
  IsolatedFig1 d(8);
  LintReport r = run_lint(d.nl, only({"isolation_overhead"}));  // 20 ns default
  EXPECT_FALSE(has_code(r, ErrCode::LintIsolationOverhead));
}

// ------------------------------------------------------ framework plumbing

TEST(LintFramework, RegistryHasTheSixBuiltinsInOrder) {
  const auto passes = lint::builtin_passes();
  ASSERT_EQ(passes.size(), 6u);
  const char* expected[] = {"comb_loop",  "width",
                            "drivers",    "dead_logic",
                            "isolation_soundness", "isolation_overhead"};
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(passes[i].name, expected[i]);
    // The structural passes run on cyclic designs; the rest need an order.
    EXPECT_EQ(passes[i].requires_acyclic, i >= 3) << expected[i];
  }
}

TEST(LintFramework, ReportDocumentCarriesSchemaAndCodes) {
  Netlist nl;
  const NetId a = nl.add_input("a", 8);
  const NetId b = nl.add_input("b", 16);
  nl.add_output("out", nl.add_binop(CellKind::Add, "s", a, b));
  LintReport r = run_lint(nl);
  r.design = "unit";
  const std::string doc = lint::build_lint_report(r).dump(2);
  EXPECT_NE(doc.find("opiso.lint/v1"), std::string::npos);
  EXPECT_NE(doc.find("lint.width"), std::string::npos);
  EXPECT_NE(doc.find("\"totals\""), std::string::npos);
}

TEST(LintFramework, TextRenderingSummarizes) {
  LintReport clean = run_lint(make_fig1(8));
  std::ostringstream os;
  lint::print_lint_text(os, clean, "fig1");
  EXPECT_NE(os.str().find("clean"), std::string::npos);
}

TEST(LintFramework, ThrowOnFindingsCarriesTheLintCode) {
  Netlist nl;
  const NetId x = nl.add_input("x", 1);
  const NetId a = nl.add_binop(CellKind::And, "a", x, x);
  nl.reconnect_input(nl.net(a).driver, 1, a);
  nl.add_output("out", a);
  LintReport r = run_lint(nl);
  try {
    lint::throw_on_findings(r, Severity::Error, "cyclic");
    FAIL() << "must throw";
  } catch (const OpisoError& e) {
    EXPECT_EQ(e.code(), ErrCode::LintCombLoop);
    EXPECT_NE(std::string(e.what()).find("lint rejected"), std::string::npos);
  }
  // A clean report never throws.
  lint::throw_on_findings(run_lint(make_fig1(8)), Severity::Warning, "fig1");
}

// -------------------------------------------------------------- integration

TEST(LintIntegration, BundledDesignsLintCleanBeforeAndAfterIsolation) {
  // Pre-transform: every bundled design is error-free.
  EXPECT_FALSE(run_lint(make_fig1(8)).fails(Severity::Error));
  EXPECT_FALSE(run_lint(make_design1(8)).fails(Severity::Error));
  EXPECT_FALSE(run_lint(make_design2(8)).fails(Severity::Error));

  // Post-transform: the full Algorithm-1 flow output still lints clean —
  // the inserted banks prove sound and nothing structural regressed.
  IsolationOptions opt;
  opt.sim_cycles = 1024;
  const auto stimuli = [] { return std::make_unique<UniformStimulus>(7); };
  for (Netlist design : {make_design1(8), make_design2(8)}) {
    const IsolationResult res = run_operand_isolation(design, stimuli, opt);
    const LintReport r = run_lint(res.netlist);
    EXPECT_FALSE(r.fails(Severity::Error))
        << (r.worst() != nullptr ? r.worst()->message : "");
    EXPECT_FALSE(has_code(r, ErrCode::LintIsolationUnsound));
  }

  // And the hand-driven single-candidate transform from fig1.
  IsolatedFig1 d(8);
  EXPECT_FALSE(run_lint(d.nl).fails(Severity::Error));
}

}  // namespace
}  // namespace opiso
