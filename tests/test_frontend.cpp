// Tests for the RTL language frontend: statement forms, expression
// precedence, register feedback, width rules and error reporting.
#include <gtest/gtest.h>

#include "frontend/rtl_parser.hpp"
#include "isolation/activation.hpp"
#include "reference_simulator.hpp"

namespace opiso {
namespace {

TEST(Rtl, MinimalDesign) {
  const Netlist nl = parse_rtl(
      "design tiny\n"
      "input a:8\n"
      "input b:8\n"
      "wire s = a + b\n"
      "output o = s\n");
  EXPECT_EQ(nl.name(), "tiny");
  EXPECT_TRUE(nl.find_net("s").valid());
  Simulator sim(nl);
  ConstantStimulus stim;
  stim.set("a", 30);
  stim.set("b", 12);
  sim.run(stim, 1);
  EXPECT_EQ(sim.net_value(nl.find_net("s")), 42u);
}

TEST(Rtl, PrecedenceMulOverAdd) {
  const Netlist nl = parse_rtl(
      "input a:4\ninput b:4\ninput c:4\n"
      "wire r = a + b * c\n"
      "output o = r\n");
  Simulator sim(nl);
  ConstantStimulus stim;
  stim.set("a", 1);
  stim.set("b", 2);
  stim.set("c", 3);
  sim.run(stim, 1);
  EXPECT_EQ(sim.net_value(nl.find_net("r")), 7u);
}

TEST(Rtl, ParenthesesOverridePrecedence) {
  const Netlist nl = parse_rtl(
      "input a:4\ninput b:4\ninput c:4\n"
      "wire r = (a + b) * c\n"
      "output o = r\n");
  Simulator sim(nl);
  ConstantStimulus stim;
  stim.set("a", 1);
  stim.set("b", 2);
  stim.set("c", 3);
  sim.run(stim, 1);
  EXPECT_EQ(sim.net_value(nl.find_net("r")), 9u);
}

TEST(Rtl, TernaryIsMux) {
  const Netlist nl = parse_rtl(
      "input s\ninput a:8\ninput b:8\n"
      "wire m = s ? a : b\n"
      "output o = m\n");
  Simulator sim(nl);
  ConstantStimulus stim;
  stim.set("a", 11);
  stim.set("b", 22);
  stim.set("s", 1);
  sim.run(stim, 1);
  EXPECT_EQ(sim.net_value(nl.find_net("m")), 11u);
  stim.set("s", 0);
  sim.run(stim, 1);
  EXPECT_EQ(sim.net_value(nl.find_net("m")), 22u);
}

TEST(Rtl, BitwiseAndComparisonOps) {
  const Netlist nl = parse_rtl(
      "input a:4\ninput b:4\n"
      "wire x = ~a & b | a ^ b\n"
      "wire lt = a < b\n"
      "wire eq = a == b\n"
      "wire sh = a << 2\n"
      "output o = x\noutput o2 = lt\noutput o3 = eq\noutput o4 = sh\n");
  Simulator sim(nl);
  ConstantStimulus stim;
  stim.set("a", 0b0011);
  stim.set("b", 0b0101);
  sim.run(stim, 1);
  EXPECT_EQ(sim.net_value(nl.find_net("x")), ((~0b0011u & 0b0101u) | (0b0011u ^ 0b0101u)) & 0xFu);
  EXPECT_EQ(sim.net_value(nl.find_net("lt")), 1u);
  EXPECT_EQ(sim.net_value(nl.find_net("eq")), 0u);
  EXPECT_EQ(sim.net_value(nl.find_net("sh")), 0b1100u);
}

TEST(Rtl, RegisterWithEnableAndFeedback) {
  // Accumulator: the reg references itself in its own D expression.
  const Netlist nl = parse_rtl(
      "design acc\n"
      "input x:8\n"
      "input en\n"
      "reg acc:8 = acc + x when en\n"
      "output o = acc\n");
  Simulator sim(nl);
  ConstantStimulus stim;
  stim.set("x", 5);
  stim.set("en", 1);
  sim.run(stim, 4);
  EXPECT_EQ(sim.net_value(nl.find_net("acc")), 15u);  // 3 captures visible
}

TEST(Rtl, RegisterWithoutWhenLoadsAlways) {
  const Netlist nl = parse_rtl(
      "input x:8\n"
      "reg r:8 = x\n"
      "output o = r\n");
  Simulator sim(nl);
  ConstantStimulus stim;
  stim.set("x", 9);
  sim.run(stim, 2);
  EXPECT_EQ(sim.net_value(nl.find_net("r")), 9u);
}

TEST(Rtl, LatchStatement) {
  const Netlist nl = parse_rtl(
      "input d:8\ninput le\n"
      "latch l:8 = d when le\n"
      "output o = l\n");
  const CellId cell = nl.net(nl.find_net("l")).driver;
  EXPECT_EQ(nl.cell(cell).kind, CellKind::Latch);
}

TEST(Rtl, SizedLiteralsAndConst) {
  const Netlist nl = parse_rtl(
      "input a:8\n"
      "const k:8 = 10\n"
      "wire s = a + k + 5:8\n"
      "output o = s\n");
  Simulator sim(nl);
  ConstantStimulus stim;
  stim.set("a", 1);
  sim.run(stim, 1);
  EXPECT_EQ(sim.net_value(nl.find_net("s")), 16u);
}

TEST(Rtl, Fig1CanBeWrittenInRtl) {
  // The paper's running example expressed in the language; activation
  // derivation must find the same functions as the builder version.
  const Netlist nl = parse_rtl(
      "design fig1_rtl\n"
      "input A:8\ninput B:8\ninput C:8\ninput D:8\ninput E:8\n"
      "input S0\ninput S1\ninput S2\ninput G0\ninput G1\n"
      "wire a1 = A + B\n"
      "wire m2 = S2 ? a1 : D\n"
      "reg r1:8 = m2 when G1\n"
      "wire m0 = S0 ? C : a1\n"
      "wire m1 = S1 ? m0 : E\n"
      "wire a0 = m1 + C\n"
      "reg r0:8 = a0 when G0\n"
      "output out0 = r0\noutput out1 = r1\n");
  ExprPool pool;
  NetVarMap vars;
  const ActivationAnalysis aa = derive_activation(nl, pool, vars);
  const CellId a1 = nl.net(nl.find_net("a1")).driver;
  const std::string as_a1 = activation_to_string(nl, pool, vars, aa.activation_of(nl, a1));
  for (const char* sig : {"S0", "S1", "S2", "G0", "G1"}) {
    EXPECT_NE(as_a1.find(sig), std::string::npos) << as_a1;
  }
}

TEST(Rtl, UserNamesLikeGeneratedOnesAreKept) {
  // An input named like a temporary is a user signal: `y` buffers it,
  // and the input keeps its name and its cell.
  const Netlist nl = parse_rtl(
      "input __t5:4\n"
      "wire y = __t5\n"
      "output o = y\n");
  const NetId in = nl.find_net("__t5");
  ASSERT_TRUE(in.valid());
  EXPECT_EQ(nl.cell(nl.net(in).driver).kind, CellKind::PrimaryInput);
  EXPECT_EQ(nl.cell(nl.net(in).driver).name, "pi:__t5");
  const Cell& y = nl.cell(nl.net(nl.find_net("y")).driver);
  EXPECT_EQ(y.kind, CellKind::Buf);
  ASSERT_EQ(y.ins.size(), 1u);
  EXPECT_EQ(y.ins[0], in);

  // The default register enable and the temporaries step aside for
  // names that statements declare, even further down.
  const Netlist regs = parse_rtl(
      "input x:4\n"
      "reg r:4 = x + x + x\n"
      "input __true\n"
      "input __t0:4\n"
      "output o = r\n"
      "output p = __t0\n");
  EXPECT_EQ(regs.cell(regs.net(regs.find_net("__true")).driver).kind, CellKind::PrimaryInput);
  EXPECT_EQ(regs.cell(regs.net(regs.find_net("__t0")).driver).kind, CellKind::PrimaryInput);
  const Cell& r = regs.cell(regs.net(regs.find_net("r")).driver);
  EXPECT_EQ(regs.cell(regs.net(r.ins[1]).driver).kind, CellKind::Constant);
}

TEST(Rtl, ErrorsCarryLineNumbers) {
  try {
    (void)parse_rtl("input a:8\nwire b = a +\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

TEST(Rtl, RejectsUnknownSignal) {
  EXPECT_THROW((void)parse_rtl("wire x = y + z\noutput o = x\n"), ParseError);
}

TEST(Rtl, RejectsRedefinition) {
  EXPECT_THROW((void)parse_rtl("input a:4\ninput a:4\n"), ParseError);
}

TEST(Rtl, RejectsRegWithoutWidth) {
  EXPECT_THROW((void)parse_rtl("input x:8\nreg r = x\n"), ParseError);
}

TEST(Rtl, RejectsWidthMismatchOnWire) {
  EXPECT_THROW((void)parse_rtl("input a:8\ninput b:8\nwire s:4 = a + b\n"), ParseError);
}

TEST(Rtl, RejectsUnsizedLiteralOutsideShift) {
  EXPECT_THROW((void)parse_rtl("input a:8\nwire s = a + 5\n"), ParseError);
}

TEST(Rtl, RejectsNonUnitWhen) {
  EXPECT_THROW((void)parse_rtl("input x:8\ninput e:2\nreg r:8 = x when e\n"), ParseError);
}

TEST(Rtl, RejectsTrailingTokens) {
  EXPECT_THROW((void)parse_rtl("input a:8 junk\n"), ParseError);
}

}  // namespace
}  // namespace opiso
