// End-to-end integration scenarios crossing every library layer:
// RTL text -> netlist -> isolation -> optimization -> text round trip ->
// formal verification, plus algorithm idempotence and composite-design
// sanity on a multi-block system.
#include <gtest/gtest.h>

#include <sstream>

#include "designs/designs.hpp"
#include "frontend/rtl_parser.hpp"
#include "isolation/algorithm.hpp"
#include "isolation/report.hpp"
#include "netlist/text_io.hpp"
#include "obs/run_report.hpp"
#include "opt/rewrite_rules.hpp"
#include "power/estimator.hpp"
#include "test_util.hpp"
#include "verify/equiv.hpp"

namespace opiso {
namespace {

constexpr const char* kPipelineRtl = R"(
design pipeline
input a:6
input b:6
input mode
input go
wire prod = a * b
wire sum = a + b
wire stage1 = mode ? prod : sum
reg r1:12 = stage1 when go
wire scaled = r1 << 1
wire corrected = r1 - b
wire stage2 = mode ? scaled : corrected
reg r2:12 = stage2 when go
output out = r2
)";

TEST(Integration, FullFlowFromRtlText) {
  // 1. Parse.
  const Netlist design = parse_rtl(kPipelineRtl);
  EXPECT_EQ(design.name(), "pipeline");

  // 2. Isolate.
  const StimulusFactory stimuli = [] {
    auto comp = std::make_unique<CompositeStimulus>(std::make_unique<UniformStimulus>(3));
    comp->route("go", std::make_unique<ControlledBitStimulus>(0.2, 0.15, 4));
    comp->route("mode", std::make_unique<ControlledBitStimulus>(0.5, 0.2, 5));
    return comp;
  };
  IsolationOptions opt;
  opt.sim_cycles = 4096;
  const IsolationResult res = run_operand_isolation(design, stimuli, opt);
  ASSERT_FALSE(res.records.empty());
  EXPECT_LT(res.power_after_mw, res.power_before_mw);

  // 3. Behavioral + formal equivalence of the transform.
  testutil::expect_observably_equivalent(design, res.netlist, 0xFEDC, 2500);
  const EquivResult formal = check_isolation_equivalence(design, res.netlist);
  EXPECT_TRUE(formal.equivalent) << formal.reason;

  // 4. Optimize the transformed design; still equivalent.
  const Netlist cleaned = optimize(res.netlist);
  testutil::expect_observably_equivalent(design, cleaned, 0xFEDD, 2500);

  // 5. Text round trip of the final artifact.
  const Netlist reloaded = netlist_from_string(netlist_to_string(cleaned));
  testutil::expect_observably_equivalent(cleaned, reloaded, 0xFEDE, 1000);
}

TEST(Integration, SecondIsolationRunFindsNothing) {
  // Idempotence: re-running Algorithm 1 on an already-isolated design
  // must not isolate anything else (every candidate carries z = 1).
  const StimulusFactory stimuli = [] {
    auto comp = std::make_unique<CompositeStimulus>(std::make_unique<UniformStimulus>(7));
    comp->route("act", std::make_unique<ControlledBitStimulus>(0.2, 0.15, 8));
    return comp;
  };
  IsolationOptions opt;
  opt.sim_cycles = 2048;
  const IsolationResult first = run_operand_isolation(make_design1(8), stimuli, opt);
  ASSERT_FALSE(first.records.empty());
  const IsolationResult second = run_operand_isolation(first.netlist, stimuli, opt);
  EXPECT_TRUE(second.records.empty());
  EXPECT_NEAR(second.power_after_mw, second.power_before_mw,
              second.power_before_mw * 0.05);
}

TEST(Integration, IsolatedDesignSurvivesOptimizationAndStillSaves) {
  // Optimization after isolation must not undo the savings (banks and
  // activation logic are live logic, not dead code).
  const StimulusFactory stimuli = [] { return std::make_unique<UniformStimulus>(9); };
  IsolationOptions opt;
  opt.sim_cycles = 4096;
  const Netlist original = make_design2(8, 2);
  const IsolationResult res = run_operand_isolation(original, stimuli, opt);
  ASSERT_FALSE(res.records.empty());
  const Netlist cleaned = optimize(res.netlist);

  Simulator sim_orig(original);
  Simulator sim_clean(cleaned);
  UniformStimulus s1(10), s2(10);
  sim_orig.run(s1, 4096);
  sim_clean.run(s2, 4096);
  const double p_orig = PowerEstimator().estimate(original, sim_orig.stats()).total_mw;
  const double p_clean = PowerEstimator().estimate(cleaned, sim_clean.stats()).total_mw;
  EXPECT_LT(p_clean, p_orig * 0.8);
}

TEST(Integration, ConstantFedCandidateIsHandled) {
  // A multiplier with one constant operand: its input net never
  // toggles, savings are small, but isolation must stay legal and
  // behavior-preserving.
  Netlist nl;
  NetId x = nl.add_input("x", 8);
  NetId k = nl.add_const("k", 3, 8);
  NetId en = nl.add_input("en", 1);
  NetId p = nl.add_binop(CellKind::Mul, "p", x, k);
  NetId r = nl.add_reg("r", p, en);
  nl.add_output("o", r);

  const StimulusFactory stimuli = [] {
    auto comp = std::make_unique<CompositeStimulus>(std::make_unique<UniformStimulus>(13));
    comp->route("en", std::make_unique<ControlledBitStimulus>(0.1, 0.1, 14));
    return comp;
  };
  IsolationOptions opt;
  opt.sim_cycles = 4096;
  const IsolationResult res = run_operand_isolation(nl, stimuli, opt);
  testutil::expect_observably_equivalent(nl, res.netlist, 0xC0DE, 2000);
}

TEST(Integration, ManyLaneDesignScalesAndStaysCorrect) {
  const Netlist big = make_design2(6, 6);  // 18 candidates, 6 lanes
  const StimulusFactory stimuli = [] { return std::make_unique<UniformStimulus>(15); };
  IsolationOptions opt;
  opt.sim_cycles = 1024;
  const IsolationResult res = run_operand_isolation(big, stimuli, opt);
  EXPECT_GE(res.records.size(), 6u);  // at least the lane multipliers
  testutil::expect_observably_equivalent(big, res.netlist, 0xB16, 1500);
}

TEST(Integration, ReportRendersTheFullStory) {
  const StimulusFactory stimuli = [] { return std::make_unique<UniformStimulus>(17); };
  IsolationOptions opt;
  opt.sim_cycles = 1024;
  const IsolationResult res = run_operand_isolation(make_fig1(8), stimuli, opt);
  std::ostringstream table;
  obs::write_iteration_table(table, obs::build_run_report(res, opt));
  const std::string report = format_isolation_summary(res) + table.str();
  EXPECT_NE(report.find("operand isolation summary"), std::string::npos);
  EXPECT_NE(report.find("iteration 0"), std::string::npos);
}

}  // namespace
}  // namespace opiso
