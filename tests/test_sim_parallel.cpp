// Differential tests for the plane engine, the only simulation engine:
// for every design, stimulus and lane count it must produce statistics
// BITWISE IDENTICAL to running the reference interpreter
// (reference_simulator.hpp) once per lane on the lane's stream and
// merging the stats. This is the contract that lets every caller with a
// single stream run one lane and get the plain cycle-by-cycle numbers.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "designs/designs.hpp"
#include "frontend/rtl_parser.hpp"
#include "isolation/activation.hpp"
#include "isolation/transform.hpp"
#include "obs/metrics.hpp"
#include "reference_simulator.hpp"
#include "sim/cycle_trace.hpp"
#include "sim/parallel_sim.hpp"
#include "sim/sweep.hpp"

namespace opiso {
namespace {

/// Probe expressions over the first few 1-bit nets, so probe counters
/// are covered wherever the design has control signals. The shapes
/// cover every gate a probe compiles to: constant roots, a Var root,
/// a root registered twice and nodes shared between probes.
std::vector<ExprRef> make_probes(const Netlist& nl, ExprPool& pool, NetVarMap& vars) {
  std::vector<ExprRef> probes = {pool.const1(), pool.const0()};
  std::vector<BoolVar> bits;
  for (NetId id : nl.net_ids()) {
    if (nl.net(id).width == 1) bits.push_back(vars.var_of(nl, id));
    if (bits.size() >= 3) break;
  }
  if (bits.empty()) return probes;
  const ExprRef v0 = pool.var(bits[0]);
  const ExprRef nv0 = pool.lnot(v0);
  probes.push_back(v0);
  probes.push_back(nv0);
  probes.push_back(nv0);  // the same root twice
  if (bits.size() >= 2) {
    const ExprRef v1 = pool.var(bits[1]);
    probes.push_back(pool.land(v0, v1));
    // Three levels whose two branches both reuse v0 and !v0.
    probes.push_back(pool.lor(pool.land(pool.lor(v0, pool.lnot(v1)), nv0),
                              pool.land(pool.lor(nv0, v1), v0)));
  }
  if (bits.size() >= 3) {
    probes.push_back(pool.lor(pool.var(bits[1]), pool.lnot(pool.var(bits[2]))));
  }
  return probes;
}

/// Frames per batch-means window in the harness: small, so short runs
/// still cover several windows and a trailing partial one.
constexpr std::uint32_t kBatchFrames = 7;

using LaneFactory = ParallelSimulator::LaneStimulusFactory;

LaneFactory uniform_lanes(std::uint64_t seed) {
  return [seed](unsigned lane) {
    return std::make_unique<UniformStimulus>(sweep_lane_seed(seed, lane));
  };
}

/// The differential harness: a plane run vs the per-lane reference
/// runs on the same streams, merged. Compares every statistic the
/// engine keeps: toggles, probes and batch moments.
void expect_matches_oracle(const Netlist& nl, unsigned lanes, std::uint64_t cycles,
                           const LaneFactory& make, std::uint64_t warmup = 0) {
  SCOPED_TRACE(testing::Message() << "design=" << nl.name() << " lanes=" << lanes
                                  << " cycles=" << cycles << " warmup=" << warmup);
  ExprPool pool;
  NetVarMap vars;
  const std::vector<ExprRef> probes = make_probes(nl, pool, vars);

  ParallelSimulator psim(nl, lanes, &pool, &vars);
  psim.enable_batch_stats(kBatchFrames);
  for (ExprRef p : probes) psim.add_probe(p);
  psim.set_stimulus(make);
  if (warmup > 0) psim.warmup(warmup);
  psim.run(cycles);

  ActivityStats oracle;
  for (unsigned l = 0; l < lanes; ++l) {
    Simulator sim(nl, &pool, &vars);
    sim.enable_batch_stats(kBatchFrames);
    for (ExprRef p : probes) sim.add_probe(p);
    const std::unique_ptr<Stimulus> stim = make(l);
    if (warmup > 0) sim.warmup(*stim, warmup);
    sim.run(*stim, cycles);
    oracle.merge(sim.stats());
    // Final word-level values per lane must match the reference run
    // too — stats could in principle agree while values diverge.
    for (NetId id : nl.net_ids()) {
      ASSERT_EQ(psim.lane_value(id, l), sim.net_value(id))
          << "net " << nl.net(id).name << " lane " << l;
    }
  }

  const ActivityStats& got = psim.stats();
  EXPECT_EQ(got.cycles, oracle.cycles);
  EXPECT_EQ(got.toggles, oracle.toggles);
  EXPECT_EQ(got.probe_true, oracle.probe_true);
  EXPECT_EQ(got.probe_toggles, oracle.probe_toggles);
  EXPECT_EQ(got.windows.frames(), cycles);
  EXPECT_EQ(got.windows, oracle.windows);
}

void expect_matches_oracle(const Netlist& nl, unsigned lanes, std::uint64_t cycles,
                           std::uint64_t seed, std::uint64_t warmup = 0) {
  expect_matches_oracle(nl, lanes, cycles, uniform_lanes(seed), warmup);
}

TEST(SimParallel, MatchesReferenceOnFig1) {
  const Netlist nl = make_fig1();
  // Lane counts straddling plane-word boundaries: partial first word,
  // exactly one word, first lane of word 1, partial last word, full block.
  for (unsigned lanes : {1u, 5u, 64u, 65u, ParallelSimulator::kMaxLanes - 3,
                         ParallelSimulator::kMaxLanes}) {
    expect_matches_oracle(nl, lanes, 200, 3);
  }
}

TEST(SimParallel, MatchesReferenceOnDesign1) {
  expect_matches_oracle(make_design1(), 64, 150, 17);
  // Cross the 64-lane word boundary on a real datapath (slow-path count
  // kept small: the oracle runs one reference run per lane).
  expect_matches_oracle(make_design1(), 96, 60, 19);
}

TEST(SimParallel, MatchesReferenceOnDesign2) {
  // design2 has an FSM, multipliers and latches — the densest mix.
  expect_matches_oracle(make_design2(), 64, 150, 29);
  expect_matches_oracle(make_design2(8, 3), 7, 100, 31);
}

TEST(SimParallel, MatchesReferenceOnParametric) {
  ParametricConfig cfg;
  cfg.lanes = 3;
  cfg.stages = 2;
  expect_matches_oracle(make_parametric_datapath(cfg), 64, 100, 41);
}

TEST(SimParallel, MatchesReferenceWithWarmup) {
  // Probe planes carry their previous values across the warmup the same
  // way net planes do.
  for (unsigned lanes : {1u, 5u, 64u, 65u, ParallelSimulator::kMaxLanes}) {
    expect_matches_oracle(make_fig1(), lanes, 100, 5, /*warmup=*/16);
  }
}

TEST(SimParallel, MatchesReferenceOnAllRtlDesigns) {
  for (const char* name : {"fig1.rtl", "design1.rtl", "fir4.rtl"}) {
    const Netlist nl =
        parse_rtl_file(std::string(OPISO_DESIGNS_RTL_DIR) + "/" + name);
    for (unsigned lanes : {1u, 5u, 64u}) expect_matches_oracle(nl, lanes, 120, 7);
  }
}

TEST(SimParallel, MatchesReferenceOnIsolatedDesigns) {
  // The transformed netlists exercise the Iso* cell kinds.
  for (IsolationStyle style :
       {IsolationStyle::And, IsolationStyle::Or, IsolationStyle::Latch}) {
    Netlist nl = make_fig1();
    ExprPool pool;
    NetVarMap vars;
    const ActivationAnalysis aa = derive_activation(nl, pool, vars);
    for (CellId id : nl.cell_ids()) {
      if (!cell_kind_is_arith(nl.cell(id).kind)) continue;
      const ExprRef f = aa.activation_of(nl, id);
      if (pool.is_const1(f) || !isolation_is_legal(nl, pool, vars, id, f)) continue;
      (void)isolate_module(nl, pool, vars, id, f, style);
    }
    expect_matches_oracle(nl, 64, 150, 13);
  }
}

// Directed mixed-width operator coverage: the bit-sliced arithmetic has
// per-kind width-extension rules (zero-extended planes, two's-complement
// Sub, mod-2^w Mul, max-width Eq/Lt) that random designs may not hit in
// every combination.
Netlist make_mixed_width_alu(unsigned wa, unsigned wb) {
  Netlist nl("mixed_alu");
  const NetId a = nl.add_input("a", wa);
  const NetId b = nl.add_input("b", wb);
  const NetId s = nl.add_net("s", std::max(wa, wb));
  const NetId d = nl.add_net("d", std::max(wa, wb));
  const NetId m = nl.add_net("m", std::min(64u, wa + wb));
  const NetId e = nl.add_net("e", 1);
  const NetId lt = nl.add_net("lt", 1);
  nl.add_cell(CellKind::Add, "add", {a, b}, s);
  nl.add_cell(CellKind::Sub, "sub", {a, b}, d);
  nl.add_cell(CellKind::Mul, "mul", {a, b}, m);
  nl.add_cell(CellKind::Eq, "eq", {a, b}, e);
  nl.add_cell(CellKind::Lt, "lt", {a, b}, lt);
  for (NetId o : {s, d, m, e, lt}) nl.add_output(nl.net(o).name + "_o", o);
  return nl;
}

TEST(SimParallel, MatchesReferenceOnMixedWidthOperators) {
  for (auto [wa, wb] : {std::pair{4u, 4u}, {3u, 8u}, {8u, 3u}, {1u, 12u}, {16u, 5u}}) {
    expect_matches_oracle(make_mixed_width_alu(wa, wb), 64, 200, 1000 + wa * 64 + wb);
  }
}

TEST(SimParallel, ShiftParamEdgeCases) {
  for (std::uint64_t sh : {std::uint64_t{0}, std::uint64_t{3}, std::uint64_t{7}}) {
    Netlist nl("shift");
    const NetId a = nl.add_input("a", 8);
    const NetId l = nl.add_net("l", 8);
    const NetId r = nl.add_net("r", 8);
    nl.add_cell(CellKind::Shl, "shl", {a}, l, sh);
    nl.add_cell(CellKind::Shr, "shr", {a}, r, sh);
    nl.add_output("lo", l);
    nl.add_output("ro", r);
    expect_matches_oracle(nl, 64, 100, 77 + sh);
  }
}

TEST(SimParallel, MatchesReferenceWithNonUniformStimulus) {
  // ControlledBitStimulus is not a uniform family, so this pins the
  // per-lane path (lanes of one uniform family take the plane path).
  const LaneFactory make = [](unsigned lane) {
    return std::make_unique<ControlledBitStimulus>(0.3, 0.2, 1000 + lane);
  };
  expect_matches_oracle(make_design1(), 70, 80, make);
}

TEST(SimParallel, MatchesReferenceWithTableStimulus) {
  // Shaped like Table 1's stimulus: uniform data, with the control
  // inputs routed to Markov streams of set probability and toggle rate.
  const LaneFactory make = [](unsigned lane) {
    auto comp = std::make_unique<CompositeStimulus>(
        std::make_unique<UniformStimulus>(sweep_lane_seed(1001, lane)));
    comp->route("act", std::make_unique<ControlledBitStimulus>(0.25, 0.2, 1002 + 8 * lane));
    comp->route("sel", std::make_unique<ControlledBitStimulus>(0.5, 0.4, 1003 + 8 * lane));
    comp->route("g1", std::make_unique<ControlledBitStimulus>(0.5, 0.3, 1004 + 8 * lane));
    comp->route("g2", std::make_unique<ControlledBitStimulus>(0.5, 0.3, 1005 + 8 * lane));
    return comp;
  };
  for (unsigned lanes : {1u, 64u}) {
    expect_matches_oracle(make_design1(8), lanes, 150, make, /*warmup=*/9);
  }
}

/// Words the engine's stimulus produced during `body`.
std::uint64_t stimulus_words(const std::function<void()>& body) {
  const obs::Counter& words = obs::metrics().counter("sim.stimulus_words");
  const std::uint64_t before = words.value();
  body();
  return words.value() - before;
}

TEST(SimParallel, UniformLanesOutOfFamilyOrderMatchReference) {
  // Uniform lanes that are not lanes 0..L-1 of one family take the
  // per-lane path: one next() per lane and input per cycle (the
  // reference interpreter counts no stimulus words).
  const Netlist nl = make_fig1();
  const auto expect_per_lane = [&nl](unsigned lanes, const std::function<unsigned(unsigned)>& of) {
    const LaneFactory make = [of](unsigned lane) {
      return std::make_unique<UniformStimulus>(sweep_lane_seed(3, of(lane)));
    };
    const std::uint64_t words =
        stimulus_words([&] { expect_matches_oracle(nl, lanes, 40, make, /*warmup=*/3); });
    EXPECT_EQ(words, std::uint64_t{43} * lanes * nl.primary_inputs().size()) << lanes;
  };
  // Lane i reads lane L-1-i.
  for (unsigned lanes : {5u, 64u, 65u, ParallelSimulator::kMaxLanes}) {
    expect_per_lane(lanes, [lanes](unsigned lane) { return lanes - 1 - lane; });
  }
  // One lane that reads lane 1 of its family.
  expect_per_lane(1, [](unsigned) { return 1u; });
}

TEST(SimParallel, StimulusWordsCountOneWordPerInputPlaneWord) {
  // In family order every input plane word that carries a lane is one
  // stream word: per cycle, the input bits times ceil(lanes / 64). The
  // block's words past the last lane are never drawn.
  const Netlist nl = make_design1();
  std::uint64_t input_bits = 0;
  for (CellId pi : nl.primary_inputs()) input_bits += nl.cell(pi).width;
  for (unsigned lanes : {1u, 5u, 64u, 65u, 100u, 128u, ParallelSimulator::kMaxLanes}) {
    ParallelSimulator sim(nl, lanes);
    sim.set_stimulus(uniform_lanes(9));
    const unsigned words = (lanes + 63) / 64;
    EXPECT_EQ(stimulus_words([&] { sim.run(10); }), 10 * input_bits * words)
        << "lanes=" << lanes;
  }
  // The words left alone stay zero: the lanes still match the reference
  // interpreter, warmup included.
  for (unsigned lanes : {65u, 100u, 128u}) {
    EXPECT_EQ(stimulus_words([&] { expect_matches_oracle(nl, lanes, 40, 9, /*warmup=*/3); }),
              43 * input_bits * ((lanes + 63) / 64))
        << "lanes=" << lanes;
  }
}

/// Records every cycle's toggle counts and settled values.
class RecordingSink final : public CycleSink {
 public:
  std::vector<std::vector<std::uint32_t>> toggles;
  std::vector<std::vector<std::uint64_t>> values;
  void on_cycle(const Netlist& nl, const CycleFrame& frame) override {
    toggles.emplace_back(frame.net_toggles.begin(), frame.net_toggles.end());
    values.emplace_back(frame.net_values, frame.net_values + nl.num_nets());
  }
};

TEST(SimParallel, CycleSinkSeesTheReferenceValuesOnOneLane) {
  // The VCD exporter reads these values.
  for (const Netlist& nl : {make_fig1(), make_design2()}) {
    RecordingSink got;
    ParallelSimulator psim(nl, 1);
    psim.set_stimulus(uniform_lanes(23));
    psim.warmup(5);
    psim.set_cycle_sink(&got);
    psim.run(60);

    RecordingSink want;
    Simulator sim(nl);
    UniformStimulus stim(sweep_lane_seed(23, 0));
    sim.warmup(stim, 5);
    sim.set_cycle_sink(&want);
    sim.run(stim, 60);

    ASSERT_EQ(got.values.size(), 60u);
    EXPECT_EQ(got.values, want.values);
    EXPECT_EQ(got.toggles, want.toggles);
  }
}

TEST(SimParallel, PollSeesNoFrameAndMovesNoStatistic) {
  // The poll runs after every kPollCycles macro-cycles of the warmup
  // and of the measured run, and after the last; the measured run and
  // the frames its sink sees do not change.
  const Netlist nl = make_design1();
  const std::uint64_t warmup = 2 * ParallelSimulator::kPollCycles + 7;
  const std::uint64_t measured = ParallelSimulator::kPollCycles + 50;
  RecordingSink plain_sink;
  ParallelSimulator plain(nl, 8);
  plain.set_stimulus(uniform_lanes(5));
  plain.warmup(warmup);
  plain.set_cycle_sink(&plain_sink);
  plain.run(measured);

  std::size_t polls = 0;
  const auto poll = [&polls] { ++polls; };
  RecordingSink polled_sink;
  ParallelSimulator polled(nl, 8);
  polled.set_stimulus(uniform_lanes(5));
  polled.warmup(warmup, poll);
  EXPECT_EQ(polls, 3u);
  polled.set_cycle_sink(&polled_sink);
  polled.run(measured, poll);

  EXPECT_EQ(polls, 5u);
  EXPECT_EQ(polled.stats().cycles, plain.stats().cycles);
  EXPECT_EQ(polled.stats().toggles, plain.stats().toggles);
  EXPECT_EQ(polled_sink.toggles, plain_sink.toggles);
  EXPECT_EQ(polled_sink.values, plain_sink.values);
}

TEST(SimParallel, CycleSinkValuesAreLaneZeroOfAManyLaneRun) {
  const Netlist nl = make_design1();
  RecordingSink got;
  ParallelSimulator psim(nl, 64);
  psim.set_stimulus(uniform_lanes(31));
  psim.set_cycle_sink(&got);
  psim.run(40);

  RecordingSink want;
  Simulator sim(nl);
  UniformStimulus stim(sweep_lane_seed(31, 0));
  sim.set_cycle_sink(&want);
  sim.run(stim, 40);
  EXPECT_EQ(got.values, want.values);
}

TEST(SimParallel, ATraceOfTheBatchWidthHoldsTheBatchWindows) {
  // The batch-means windows and a trace with the same window width fold
  // one frame stream into one window store: the warmup's frames leave
  // both, and the trace's column sums are the run's toggles.
  constexpr std::uint32_t kWindow = 8;
  const Netlist nl = make_design2();
  ExprPool pool;
  NetVarMap vars;
  const std::vector<ExprRef> probes = make_probes(nl, pool, vars);
  for (unsigned lanes : {1u, 64u, 65u}) {
    SCOPED_TRACE(testing::Message() << "lanes=" << lanes);
    ParallelSimulator sim(nl, lanes, &pool, &vars);
    sim.enable_batch_stats(kWindow);
    for (ExprRef p : probes) sim.add_probe(p);
    sim.set_stimulus(uniform_lanes(43));
    sim.warmup(5);
    CycleTrace trace(kWindow);
    sim.set_cycle_sink(&trace);
    sim.run(43);

    const obs::WindowCounts& batches = sim.stats().windows;
    ASSERT_EQ(batches.frames(), 43u);
    ASSERT_EQ(batches.complete_windows(), 5u);
    ASSERT_EQ(batches.num_windows(), 6u);
    EXPECT_EQ(trace.windows(), batches);
    std::vector<std::uint64_t> totals(nl.num_nets(), 0);
    for (std::uint64_t w = 0; w < batches.num_windows(); ++w) {
      for (std::size_t n = 0; n < totals.size(); ++n) totals[n] += batches.nets(w)[n];
    }
    EXPECT_EQ(totals, sim.stats().toggles);
  }
}

TEST(SimParallel, RunRequiresStimulus) {
  const Netlist nl = make_fig1();
  ParallelSimulator sim(nl, 4);
  EXPECT_THROW(sim.run(1), Error);
}

TEST(SimParallel, LaneBoundsChecked) {
  const Netlist nl = make_fig1();
  EXPECT_THROW(ParallelSimulator(nl, 0), Error);
  EXPECT_THROW(ParallelSimulator(nl, ParallelSimulator::kMaxLanes + 1), Error);
  ParallelSimulator sim(nl, 4);
  sim.set_stimulus([](unsigned) { return std::make_unique<UniformStimulus>(1); });
  sim.run(1);
  EXPECT_THROW((void)sim.lane_value(NetId{0}, 4), Error);
}

TEST(SimParallel, ProbesRequirePoolAndVars) {
  const Netlist nl = make_fig1();
  ParallelSimulator sim(nl, 4);
  ExprPool pool;
  EXPECT_THROW((void)sim.add_probe(pool.const1()), Error);
}

TEST(SimParallel, ProbesMustPrecedeTheFirstCycle) {
  // A probe added late would start from a previous value of 0 while a
  // plane it shares with a net or an earlier probe holds a real one.
  const Netlist nl = make_fig1();
  ExprPool pool;
  NetVarMap vars;
  const std::vector<ExprRef> probes = make_probes(nl, pool, vars);
  for (bool warm : {false, true}) {
    ParallelSimulator sim(nl, 4, &pool, &vars);
    (void)sim.add_probe(probes.back());
    sim.set_stimulus(uniform_lanes(3));
    if (warm) {
      sim.warmup(1);
    } else {
      sim.run(1);
    }
    EXPECT_THROW((void)sim.add_probe(probes.front()), Error) << "warmup=" << warm;
  }
}

TEST(SimParallel, StatsAccumulateAcrossRunsAndReset) {
  const Netlist nl = make_fig1();
  ParallelSimulator sim(nl, 8);
  sim.set_stimulus([](unsigned lane) {
    return std::make_unique<UniformStimulus>(sweep_lane_seed(2, lane));
  });
  sim.run(10);
  EXPECT_EQ(sim.stats().cycles, 80u);
  sim.run(10);
  EXPECT_EQ(sim.stats().cycles, 160u);
  sim.reset_stats();
  EXPECT_EQ(sim.stats().cycles, 0u);
}

// ------------------------------------------------- the shared evaluator

/// Output width of an operator over input widths, written out here
/// apart from cell_kind_width so the test checks that rule instead of
/// restating it.
unsigned expected_width(CellKind kind, const std::vector<unsigned>& w) {
  switch (kind) {
    case CellKind::Eq:
    case CellKind::Lt:
      return 1;
    case CellKind::Mul:
      return std::min(64u, w[0] + w[1]);
    case CellKind::Mux2:
      return std::max(w[1], w[2]);
    case CellKind::Add:
    case CellKind::Sub:
    case CellKind::And:
    case CellKind::Or:
    case CellKind::Xor:
    case CellKind::Nand:
    case CellKind::Nor:
    case CellKind::Xnor:
      return std::max(w[0], w[1]);
    default:  // one-input kinds and the isolation banks: the data pin
      return w[0];
  }
}

/// One cell of `kind` over inputs of `widths` (with `shared`, a pin
/// reads the first earlier input of its width), run on one lane: every
/// cycle, lane 0's output must be cell_kind_eval of lane 0's inputs.
void expect_eval_matches_engine(CellKind kind, const std::vector<unsigned>& widths,
                                std::uint64_t param, bool shared, std::uint64_t seed) {
  SCOPED_TRACE(testing::Message() << cell_kind_name(kind) << " widths=" << widths[0] << ","
                                  << (widths.size() > 1 ? widths[1] : 0) << ","
                                  << (widths.size() > 2 ? widths[2] : 0) << " param=" << param
                                  << " shared=" << shared);
  Netlist nl("one_cell");
  std::vector<NetId> ins;
  for (std::size_t p = 0; p < widths.size(); ++p) {
    NetId in = NetId::invalid();
    for (std::size_t q = 0; shared && q < p && !in.valid(); ++q) {
      if (widths[q] == widths[p]) in = ins[q];
    }
    ins.push_back(in.valid() ? in : nl.add_input("i" + std::to_string(p), widths[p]));
  }
  const unsigned out_w = expected_width(kind, widths);
  ASSERT_EQ(cell_kind_width(kind, widths), out_w);
  const NetId out = nl.add_net("o", out_w);
  nl.add_cell(kind, "cell", ins, out, param);
  nl.add_output("o", out);

  RecordingSink sink;
  ParallelSimulator sim(nl, 1);
  sim.set_stimulus(uniform_lanes(seed));
  sim.set_cycle_sink(&sink);
  sim.run(64);
  ASSERT_EQ(sink.values.size(), 64u);
  std::vector<std::uint64_t> in(ins.size());
  for (const std::vector<std::uint64_t>& v : sink.values) {
    for (std::size_t p = 0; p < ins.size(); ++p) in[p] = v[ins[p].value()];
    ASSERT_EQ(v[out.value()], cell_kind_eval(kind, param, out_w, in));
  }
}

TEST(CellKindEval, MatchesPlaneEngine) {
  const std::vector<unsigned> widths = {1, 5, 8, 33, 64};
  std::uint64_t seed = 1;
  const auto check = [&](CellKind kind, const std::vector<unsigned>& w, std::uint64_t param) {
    expect_eval_matches_engine(kind, w, param, false, seed++);
    if (w.size() > 1 && std::set<unsigned>(w.begin(), w.end()).size() < w.size()) {
      expect_eval_matches_engine(kind, w, param, true, seed++);
    }
  };
  int kinds = 0;
  for (int k = 0; k < kNumCellKinds; ++k) {
    const auto kind = static_cast<CellKind>(k);
    if (!cell_kind_is_operator(kind)) continue;
    ++kinds;
    for (unsigned wa : widths) {
      if (kind == CellKind::Shl || kind == CellKind::Shr) {
        for (std::uint64_t sh : {std::uint64_t{0}, std::uint64_t{3}, std::uint64_t{wa - 1},
                                 std::uint64_t{70}}) {
          check(kind, {wa}, sh);
        }
      } else if (cell_kind_num_inputs(kind) == 1) {
        check(kind, {wa}, 0);
      } else if (cell_kind_is_isolation(kind)) {
        check(kind, {wa, 1}, 0);  // data, one-bit AS
      } else if (kind == CellKind::Mux2) {
        for (unsigned wb : widths) check(kind, {1, wa, wb}, 0);  // one-bit select, legs
      } else {
        for (unsigned wb : widths) check(kind, {wa, wb}, 0);
      }
    }
  }
  EXPECT_EQ(kinds, 18);
}

}  // namespace
}  // namespace opiso
