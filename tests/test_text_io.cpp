// Round-trip and error tests for the .rtn textual netlist format.
#include <gtest/gtest.h>

#include "designs/designs.hpp"
#include "netlist/text_io.hpp"

namespace opiso {
namespace {

void expect_same_structure(const Netlist& a, const Netlist& b) {
  ASSERT_EQ(a.num_cells(), b.num_cells());
  ASSERT_EQ(a.num_nets(), b.num_nets());
  for (CellId id : a.cell_ids()) {
    const Cell& ca = a.cell(id);
    const Cell& cb = b.cell(id);
    EXPECT_EQ(ca.kind, cb.kind);
    EXPECT_EQ(ca.name, cb.name);
    EXPECT_EQ(ca.width, cb.width);
    EXPECT_EQ(ca.param, cb.param);
    ASSERT_EQ(ca.ins.size(), cb.ins.size());
    for (std::size_t p = 0; p < ca.ins.size(); ++p) {
      EXPECT_EQ(a.net(ca.ins[p]).name, b.net(cb.ins[p]).name);
    }
  }
}

class TextIoRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(TextIoRoundTrip, PreservesStructure) {
  Netlist nl;
  const std::string which = GetParam();
  if (which == "fig1") nl = make_fig1(8);
  if (which == "design1") nl = make_design1(8);
  if (which == "design2") nl = make_design2(8, 2);
  if (which == "parametric") nl = make_parametric_datapath({2, 2, 8, true});
  const std::string text = netlist_to_string(nl);
  const Netlist back = netlist_from_string(text);
  expect_same_structure(nl, back);
  // Idempotence: a second round trip emits identical text.
  EXPECT_EQ(netlist_to_string(back), text);
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, TextIoRoundTrip,
                         ::testing::Values("fig1", "design1", "design2", "parametric"));

TEST(TextIo, ParsesCommentsAndBlankLines) {
  const std::string text =
      "# a comment\n"
      "design t\n"
      "\n"
      "net a 4   # trailing comment\n"
      "net b 4\n"
      "net s 4\n"
      "cell pi:a input -> a :\n"
      "cell pi:b input -> b :\n"
      "cell add1 add -> s : a b\n"
      "cell po:o output -> - : s\n";
  const Netlist nl = netlist_from_string(text);
  EXPECT_EQ(nl.name(), "t");
  EXPECT_EQ(nl.num_cells(), 4u);
}

TEST(TextIo, PreservesParams) {
  Netlist nl;
  NetId a = nl.add_input("a", 8);
  nl.add_shift(CellKind::Shr, "sh", a, 3);
  nl.add_const("k", 42, 8);
  const Netlist back = netlist_from_string(netlist_to_string(nl));
  EXPECT_EQ(back.cell(back.find_cell("s:sh")).param, 3u);
  EXPECT_EQ(back.cell(back.find_cell("const:k")).param, 42u);
}

TEST(TextIo, NumbersAreWholeDecimalTokens) {
  // The largest param round-trips; one past it, a sign or a suffix is a
  // parse.number diagnostic on its line (tests/corpus/rtn has the rest).
  const std::string head = "design t\nnet a 64\nnet y 64\ncell pi:a input -> a :\n";
  const Netlist nl =
      netlist_from_string(head + "cell k const param=18446744073709551615 -> y :\n");
  EXPECT_EQ(nl.cell(nl.find_cell("k")).param, ~std::uint64_t{0});
  for (const char* param : {"18446744073709551616", "+1", "-0", "0x10"}) {
    SCOPED_TRACE(param);
    try {
      (void)netlist_from_string(head + "cell s shr param=" + param + " -> y : a\n");
      ADD_FAILURE() << "accepted";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.code(), ErrCode::ParseNumber);
      EXPECT_EQ(e.input_line(), 5);
    }
  }
}

TEST(TextIo, RejectsUnknownNet) {
  EXPECT_THROW(netlist_from_string("design t\ncell g add -> x : a b\n"), ParseError);
}

TEST(TextIo, RejectsUnknownDirective) {
  EXPECT_THROW(netlist_from_string("wires a 4\n"), ParseError);
}

TEST(TextIo, RejectsUnknownKind) {
  EXPECT_THROW(netlist_from_string("design t\nnet a 4\ncell g frobnicate -> a :\n"),
               ParseError);
}

TEST(TextIo, ErrorsCarryLineNumbers) {
  try {
    (void)netlist_from_string("design t\nnet a 4\nnet a 4\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

}  // namespace
}  // namespace opiso
