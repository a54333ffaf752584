// VCD writer/parser round trip (obs/vcd.hpp): what write_vcd emits must
// come back through parse_vcd with every net and power signal declared,
// deterministic identifier codes, and strictly increasing timestamps —
// and the parser must reject the malformed documents `opiso vcd-check`
// gates on in CI.
#include <gtest/gtest.h>

#include <sstream>

#include "designs/designs.hpp"
#include "obs/vcd.hpp"
#include "power/power_trace.hpp"
#include "sim/cycle_trace.hpp"
#include "sim/parallel_sim.hpp"
#include "sim/sweep.hpp"

namespace opiso {
namespace {

struct Wave {
  CycleTrace trace{1, true};
  PowerTrace power;
};

/// A multi-lane capture, as `opiso wave` makes: lane 0's values, power
/// folded over every lane.
Wave make_wave(const Netlist& nl, std::uint64_t cycles, std::uint64_t window) {
  Wave w;
  w.trace = CycleTrace(window, /*record_values=*/true);
  ParallelSimulator sim(nl, 4);
  sim.set_stimulus([](unsigned lane) {
    return std::make_unique<UniformStimulus>(sweep_lane_seed(1, lane));
  });
  sim.warmup(8);
  sim.set_cycle_sink(&w.trace);
  sim.run(cycles);
  w.power = compute_power_trace(nl, w.trace);
  return w;
}

TEST(Vcd, RoundTripsThroughParser) {
  const Netlist nl = make_design1();
  const Wave w = make_wave(nl, 64, 1);
  std::ostringstream os;
  obs::write_vcd(os, nl, w.trace, &w.power);
  const obs::VcdDocument doc = obs::parse_vcd(os.str());

  // One wire per net plus two real signals per cell.
  EXPECT_EQ(doc.vars.size(), nl.num_nets() + 2 * nl.num_cells());
  EXPECT_EQ(doc.num_timestamps, w.trace.windows().num_windows());
  EXPECT_EQ(doc.first_timestamp, 0u);
  EXPECT_EQ(doc.last_timestamp, (w.trace.windows().num_windows() - 1) * 10);
  EXPECT_GT(doc.num_changes, 0u);
  EXPECT_EQ(doc.timescale, "1ns");

  // Every net appears under its (sanitized) name with its width.
  for (NetId id : nl.net_ids()) {
    const Net& n = nl.net(id);
    const obs::VcdVar* var = doc.find_var(n.name);
    ASSERT_NE(var, nullptr) << n.name;
    EXPECT_EQ(var->width, n.width);
    EXPECT_EQ(var->type, "wire");
  }
  // And every cell got its power pair.
  for (CellId id : nl.cell_ids()) {
    const std::string& name = nl.cell(id).name;
    EXPECT_NE(doc.find_var("e_" + name), nullptr) << name;
    EXPECT_NE(doc.find_var("t_" + name), nullptr) << name;
  }
}

TEST(Vcd, OutputIsDeterministic) {
  const Netlist nl = make_fig1();
  std::ostringstream a;
  std::ostringstream b;
  {
    const Wave w = make_wave(nl, 32, 1);
    obs::write_vcd(a, nl, w.trace, &w.power);
  }
  {
    const Wave w = make_wave(nl, 32, 1);
    obs::write_vcd(b, nl, w.trace, &w.power);
  }
  EXPECT_EQ(a.str(), b.str());
}

TEST(Vcd, WindowedTimestampsAreSampleStarts) {
  const Netlist nl = make_fig1();
  const Wave w = make_wave(nl, 64, 16);
  std::ostringstream os;
  obs::write_vcd(os, nl, w.trace, nullptr);
  const obs::VcdDocument doc = obs::parse_vcd(os.str());
  EXPECT_EQ(doc.num_timestamps, 4u);
  EXPECT_EQ(doc.last_timestamp, 48u * 10);
}

TEST(Vcd, RequiresValueSnapshots) {
  const Netlist nl = make_fig1();
  CycleTrace trace(1, /*record_values=*/false);
  ParallelSimulator sim(nl, 1);
  sim.set_stimulus([](unsigned) { return std::make_unique<UniformStimulus>(1); });
  sim.set_cycle_sink(&trace);
  sim.run(4);
  std::ostringstream os;
  EXPECT_THROW(obs::write_vcd(os, nl, trace, nullptr), Error);
}

TEST(Vcd, ParserRejectsMalformedDocuments) {
  const char* header =
      "$timescale 1ns $end\n$scope module m $end\n"
      "$var wire 4 ! a $end\n$upscope $end\n$enddefinitions $end\n";
  // Undeclared identifier.
  EXPECT_THROW(obs::parse_vcd(std::string(header) + "#0\nb1010 ?\n"), ParseError);
  // Vector wider than declared.
  EXPECT_THROW(obs::parse_vcd(std::string(header) + "#0\nb10101 !\n"), ParseError);
  // Non-increasing timestamps.
  EXPECT_THROW(obs::parse_vcd(std::string(header) + "#5\nb1010 !\n#5\nb1011 !\n"), ParseError);
  // Value change before any timestamp.
  EXPECT_THROW(obs::parse_vcd(std::string(header) + "b1010 !\n"), ParseError);
  // Truncated declarations.
  EXPECT_THROW(obs::parse_vcd("$timescale 1ns $end\n$scope module m $end\n"), ParseError);
  // Garbage token.
  EXPECT_THROW(obs::parse_vcd(std::string(header) + "#0\nq! \n"), ParseError);
  // Numbers are read whole and never wrap: a width past 2^32 is not a
  // 1-bit var, a timestamp past 2^64 - 1 does not wrap to a later one,
  // and a real value must be a finite number.
  const std::string scope = "$timescale 1ns $end\n$scope module m $end\n";
  const std::string defs_end = "$upscope $end\n$enddefinitions $end\n";
  EXPECT_THROW(obs::parse_vcd(scope + "$var wire 4294967297 ! x $end\n" + defs_end + "#0\n1!\n"),
               ParseError);
  EXPECT_THROW(obs::parse_vcd(scope + "$var wire 1x ! x $end\n" + defs_end), ParseError);
  EXPECT_THROW(obs::parse_vcd(std::string(header) + "#5\nb1010 !\n#18446744073709551626\n"),
               ParseError);
  EXPECT_THROW(obs::parse_vcd(std::string(header) + "#-1\n"), ParseError);
  EXPECT_THROW(obs::parse_vcd(std::string(header) + "#1e3\n"), ParseError);
  const std::string real = scope + "$var real 64 \" e $end\n" + defs_end + "#0\n";
  EXPECT_THROW(obs::parse_vcd(real + "rfoo \"\n"), ParseError);
  EXPECT_THROW(obs::parse_vcd(real + "r \"\n"), ParseError);
  EXPECT_THROW(obs::parse_vcd(real + "r1.5x \"\n"), ParseError);
  EXPECT_THROW(obs::parse_vcd(real + "rinf \"\n"), ParseError);
  EXPECT_EQ(obs::parse_vcd(real + "r1.5e3 \"\nr42 \"\n").num_changes, 2u);
  // An identifier reused for another var must keep its width.
  const auto aliased = [&](const std::string& width) {
    return scope + "$var wire 4 ! a $end\n$var wire " + width + " ! b $end\n" + defs_end;
  };
  EXPECT_THROW(obs::parse_vcd(aliased("8")), ParseError);
  EXPECT_EQ(obs::parse_vcd(aliased("4")).vars.size(), 2u);
  // The well-formed document parses.
  const obs::VcdDocument ok = obs::parse_vcd(std::string(header) + "#0\nb1010 !\n#10\n0!\n");
  EXPECT_EQ(ok.vars.size(), 1u);
  EXPECT_EQ(ok.num_timestamps, 2u);
  EXPECT_EQ(ok.num_changes, 2u);
}

}  // namespace
}  // namespace opiso
