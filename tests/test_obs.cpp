// Observability layer: JSON round-trips, span tracing, metrics
// registry, run reports.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <set>
#include <sstream>
#include <thread>

#include "designs/designs.hpp"
#include "isolation/algorithm.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"
#include "sim/parallel_sim.hpp"
#include "sim/sweep.hpp"
#include "util/error.hpp"

namespace opiso::obs {
namespace {

// ---------------------------------------------------------------- JSON

TEST(Json, BuildAndDump) {
  JsonValue doc = JsonValue::object();
  doc["name"] = "opiso";
  doc["count"] = std::uint64_t{42};
  doc["pi"] = 3.5;
  doc["ok"] = true;
  doc["nothing"] = JsonValue();
  doc["list"].push_back(1);
  doc["list"].push_back("two");
  EXPECT_EQ(doc.dump(),
            R"({"name":"opiso","count":42,"pi":3.5,"ok":true,"nothing":null,"list":[1,"two"]})");

  // The layout and number/string formatting edge cases, at each indent.
  // The expected texts were captured from the ostream serializer that
  // JsonWriter replaced, so they pin that every report keeps its bytes.
  doc = JsonValue::object();
  doc["neg_zero"] = -0.0;
  doc["min_subnormal"] = 5e-324;
  doc["big"] = 1e16;
  doc["tenth"] = 0.1;
  doc["two53_plus_1"] = 9007199254740993.0;  // rounds to 2^53
  doc["nan"] = std::numeric_limits<double>::quiet_NaN();
  doc["inf"] = std::numeric_limits<double>::infinity();
  doc["ninf"] = -std::numeric_limits<double>::infinity();
  doc["ctrl"] = std::string("\x01\x1f\b\f\n\r\t", 7);
  doc["quote"] = "q\"b\\s";
  doc["del_utf8"] = "\x7f\xc3\xa9";
  doc[std::string("k\te\x01y", 5)] = true;
  doc["empty_obj"] = JsonValue::object();
  doc["empty_arr"] = JsonValue::array();
  JsonValue& nested = doc["nested"];
  nested.push_back(JsonValue::object());
  nested.push_back(JsonValue::array());
  JsonValue two = JsonValue::array();
  two.push_back(2);
  JsonValue deep = JsonValue::array();
  deep.push_back(1);
  deep.push_back(std::move(two));
  nested.push_back(std::move(deep));
  JsonValue kz = JsonValue::object();
  kz["k"]["z"] = JsonValue();
  nested.push_back(std::move(kz));
  JsonValue& ints = doc["ints"];
  ints.push_back(-1);
  ints.push_back(0);
  ints.push_back(std::numeric_limits<long long>::min());
  ints.push_back(std::numeric_limits<unsigned long long>::max());

  EXPECT_EQ(doc.dump(0),
            "{\"neg_zero\":0,\"min_subnormal\":4.9406564584124654e-324,\"big\":10000000000000000,"
            "\"tenth\":0.10000000000000001,\"two53_plus_1\":9007199254740992,\"nan\":null,"
            "\"inf\":null,\"ninf\":null,\"ctrl\":\"\\u0001\\u001f\\u0008\\u000c\\n\\r\\t\","
            "\"quote\":\"q\\\"b\\\\s\",\"del_utf8\":\"\x7f" "\xc3" "\xa9" "\","
            "\"k\\te\\u0001y\":true,\"empty_obj\":{},\"empty_arr\":[],"
            "\"nested\":[{},[],[1,[2]],{\"k\":{\"z\":null}}],"
            "\"ints\":[-1,0,-9223372036854775808,18446744073709551615]}");
  EXPECT_EQ(doc.dump(1),
            "{\n"
            " \"neg_zero\": 0,\n"
            " \"min_subnormal\": 4.9406564584124654e-324,\n"
            " \"big\": 10000000000000000,\n"
            " \"tenth\": 0.10000000000000001,\n"
            " \"two53_plus_1\": 9007199254740992,\n"
            " \"nan\": null,\n"
            " \"inf\": null,\n"
            " \"ninf\": null,\n"
            " \"ctrl\": \"\\u0001\\u001f\\u0008\\u000c\\n\\r\\t\",\n"
            " \"quote\": \"q\\\"b\\\\s\",\n"
            " \"del_utf8\": \"\x7f" "\xc3" "\xa9" "\",\n"
            " \"k\\te\\u0001y\": true,\n"
            " \"empty_obj\": {},\n"
            " \"empty_arr\": [],\n"
            " \"nested\": [\n"
            "  {},\n"
            "  [],\n"
            "  [\n"
            "   1,\n"
            "   [\n"
            "    2\n"
            "   ]\n"
            "  ],\n"
            "  {\n"
            "   \"k\": {\n"
            "    \"z\": null\n"
            "   }\n"
            "  }\n"
            " ],\n"
            " \"ints\": [\n"
            "  -1,\n"
            "  0,\n"
            "  -9223372036854775808,\n"
            "  18446744073709551615\n"
            " ]\n"
            "}");
  EXPECT_EQ(doc.dump(2),
            "{\n"
            "  \"neg_zero\": 0,\n"
            "  \"min_subnormal\": 4.9406564584124654e-324,\n"
            "  \"big\": 10000000000000000,\n"
            "  \"tenth\": 0.10000000000000001,\n"
            "  \"two53_plus_1\": 9007199254740992,\n"
            "  \"nan\": null,\n"
            "  \"inf\": null,\n"
            "  \"ninf\": null,\n"
            "  \"ctrl\": \"\\u0001\\u001f\\u0008\\u000c\\n\\r\\t\",\n"
            "  \"quote\": \"q\\\"b\\\\s\",\n"
            "  \"del_utf8\": \"\x7f" "\xc3" "\xa9" "\",\n"
            "  \"k\\te\\u0001y\": true,\n"
            "  \"empty_obj\": {},\n"
            "  \"empty_arr\": [],\n"
            "  \"nested\": [\n"
            "    {},\n"
            "    [],\n"
            "    [\n"
            "      1,\n"
            "      [\n"
            "        2\n"
            "      ]\n"
            "    ],\n"
            "    {\n"
            "      \"k\": {\n"
            "        \"z\": null\n"
            "      }\n"
            "    }\n"
            "  ],\n"
            "  \"ints\": [\n"
            "    -1,\n"
            "    0,\n"
            "    -9223372036854775808,\n"
            "    18446744073709551615\n"
            "  ]\n"
            "}");
  // write() renders the same text.
  std::ostringstream os;
  doc.write(os, 1);
  EXPECT_EQ(os.str(), doc.dump(1));
}

// Streaming the same document token by token gives dump()'s bytes, and
// a string literal is a string, never the bool overload.
TEST(Json, WriterStreamsWhatDumpRenders) {
  JsonValue tree = JsonValue::object();
  tree["s"] = "literal";
  tree["i"] = -3;
  tree["u"] = std::size_t{7};
  tree["d"] = 0.25;
  tree["b"] = false;
  tree["n"] = JsonValue();
  tree["a"].push_back(JsonValue::object());
  for (const int indent : {0, 1, 2}) {
    JsonWriter w(indent);
    w.begin_object();
    w.key("s").value("literal");
    w.key("i").value(-3);
    w.key("u").value(std::size_t{7});
    w.key("d").value(0.25);
    w.key("b").value(false);
    w.key("n").value(nullptr);
    w.key("a").begin_array().begin_object().end_object().end_array();
    w.end_object();
    EXPECT_EQ(w.str(), tree.dump(indent)) << "indent " << indent;
    JsonWriter sub(indent);
    sub.value(tree);
    EXPECT_EQ(sub.str(), tree.dump(indent));
  }
}

TEST(Json, ParseRoundTrip) {
  const std::string text =
      R"({"a": [1, 2.5, -3e2, true, false, null], "s": "q\"uo\\te\n", "nested": {"x": {}}})";
  const JsonValue v = JsonValue::parse(text);
  EXPECT_EQ(v.at("a").size(), 6u);
  EXPECT_DOUBLE_EQ(v.at("a").at(2).as_number(), -300.0);
  EXPECT_EQ(v.at("s").as_string(), "q\"uo\\te\n");
  // dump → parse → dump is a fixed point.
  const std::string once = v.dump();
  EXPECT_EQ(JsonValue::parse(once).dump(), once);
  // Pretty-printed output parses back to the same document.
  EXPECT_EQ(JsonValue::parse(v.dump(2)).dump(), once);

  // Subnormal doubles the writer emits parse back to the same bits.
  for (const char* sub : {"4.9406564584124654e-324", "2.2250738585072009e-308", "1e-320"}) {
    SCOPED_TRACE(sub);
    const JsonValue d = JsonValue::parse(sub);
    EXPECT_EQ(d.as_number(), std::strtod(sub, nullptr));
    EXPECT_EQ(JsonValue::parse(d.dump()).as_number(), d.as_number());
  }
  EXPECT_EQ(JsonValue::parse("1e-320").dump(), "9.9998886718268301e-321");
  // Underflow to zero stays an error, like overflow to infinity.
  for (const char* tiny : {"1e-400", "-2e-324"}) {
    SCOPED_TRACE(tiny);
    try {
      (void)JsonValue::parse(tiny);
      ADD_FAILURE() << "parsed an underflowing literal";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.code(), ErrCode::JsonNumber) << e.what();
    }
  }
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(JsonValue::parse(""), ParseError);
  EXPECT_THROW(JsonValue::parse("{"), ParseError);
  EXPECT_THROW(JsonValue::parse("[1,]"), ParseError);
  EXPECT_THROW(JsonValue::parse("{} trailing"), ParseError);
  EXPECT_THROW(JsonValue::parse("nul"), ParseError);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), ParseError);
}

TEST(Json, DepthLimitRejectsPathologicalNesting) {
  // 100 levels is legitimate structure; 200 must trip the recursion
  // budget with a structured json.depth diagnostic instead of
  // overflowing the parser's stack.
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') + "1" +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW(JsonValue::parse(nested(100)));
  try {
    (void)JsonValue::parse(nested(200));
    FAIL() << "expected a depth error";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.code(), ErrCode::JsonDepth);
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos);
  }
  // Mixed object/array nesting counts against the same budget.
  std::string mixed;
  for (int i = 0; i < 100; ++i) mixed += R"({"a":[)";
  mixed += "1";
  for (int i = 0; i < 100; ++i) mixed += "]}";
  EXPECT_THROW(JsonValue::parse(mixed), ParseError);
}

TEST(Json, RejectsNonFiniteNumbers) {
  // JSON has no NaN/Infinity literals; each spelling must fail with a
  // json.number diagnostic that names the problem, and an overflowing
  // exponent must not sneak a non-finite double into a document.
  for (const char* text : {"NaN", "nan", "Infinity", "-Infinity", "inf", "-inf",
                           R"({"v": NaN})", "[1, Infinity]", "1e999", "-1e999"}) {
    SCOPED_TRACE(text);
    try {
      (void)JsonValue::parse(text);
      ADD_FAILURE() << "parsed non-finite input: " << text;
    } catch (const ParseError& e) {
      EXPECT_EQ(e.code(), ErrCode::JsonNumber) << e.what();
    }
  }
}

TEST(Json, IntegersStayIntegers) {
  JsonValue v(std::uint64_t{16384});
  EXPECT_EQ(v.dump(), "16384");
  EXPECT_DOUBLE_EQ(JsonValue::parse("16384").as_number(), 16384.0);
}

TEST(Json, IntegersExactBeyondDoublePrecision) {
  // 2^53 + 1 is the first integer a double cannot hold; toggle counters
  // on long sweeps get there. Build-side exactness:
  const std::uint64_t big = 9007199254740993ull;  // 2^53 + 1
  JsonValue v(big);
  EXPECT_TRUE(v.is_integer());
  EXPECT_EQ(v.dump(), "9007199254740993");
  EXPECT_EQ(v.as_uint64(), big);
  // Parse-side exactness, through a full round trip:
  const JsonValue r = JsonValue::parse(v.dump());
  EXPECT_TRUE(r.is_integer());
  EXPECT_EQ(r.as_uint64(), big);
  EXPECT_EQ(r.dump(), "9007199254740993");

  // The extremes of both representations survive round trips too.
  const JsonValue umax = JsonValue::parse("18446744073709551615");
  EXPECT_EQ(umax.num_rep(), JsonValue::NumRep::Uint64);
  EXPECT_EQ(umax.as_uint64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(umax.dump(), "18446744073709551615");
  const JsonValue imin = JsonValue::parse("-9223372036854775808");
  EXPECT_EQ(imin.num_rep(), JsonValue::NumRep::Int64);
  EXPECT_EQ(imin.as_int64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(imin.dump(), "-9223372036854775808");

  // Conversions that cannot represent the value must throw, not wrap.
  EXPECT_THROW((void)umax.as_int64(), Error);
  EXPECT_THROW((void)imin.as_uint64(), Error);
  // Non-integral tokens stay doubles even when they look integral-ish.
  EXPECT_FALSE(JsonValue::parse("1e3").is_integer());
  EXPECT_FALSE(JsonValue::parse("16384.0").is_integer());
  // Beyond-uint64 magnitudes fall back to double instead of failing.
  const JsonValue huge = JsonValue::parse("28446744073709551615");
  EXPECT_FALSE(huge.is_integer());
  EXPECT_GT(huge.as_number(), 1.8e19);
}

// --------------------------------------------------------------- Trace

TEST(Trace, DisabledModeProducesZeroOutput) {
  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(false);
  tracer.clear();
  {
    OPISO_SPAN("outer");
    OPISO_SPAN("inner");
  }
  EXPECT_EQ(tracer.num_events(), 0u);
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const JsonValue doc = JsonValue::parse(os.str());
  EXPECT_EQ(doc.at("traceEvents").size(), 0u);
}

TEST(Trace, SpanNestingAndMonotonicity) {
  Tracer& tracer = Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  {
    OPISO_SPAN("outer");
    {
      OPISO_SPAN("inner_a");
    }
    {
      OPISO_SPAN("inner_b");
    }
  }
  tracer.set_enabled(false);
  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 3u);  // recorded at end: inner_a, inner_b, outer
  EXPECT_EQ(events[0].name, "inner_a");
  EXPECT_EQ(events[1].name, "inner_b");
  EXPECT_EQ(events[2].name, "outer");
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_EQ(events[2].depth, 0);
  // Children start no earlier than the parent and end within it.
  const TraceEvent& outer = events[2];
  for (int i = 0; i < 2; ++i) {
    EXPECT_GE(events[i].start_ns, outer.start_ns);
    EXPECT_LE(events[i].start_ns + events[i].dur_ns, outer.start_ns + outer.dur_ns);
  }
  // inner_b begins after inner_a ended (steady clock is monotonic).
  EXPECT_GE(events[1].start_ns, events[0].start_ns + events[0].dur_ns);
  tracer.clear();
}

TEST(Trace, ChromeTraceShape) {
  Tracer& tracer = Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  { OPISO_SPAN("phase"); }
  tracer.set_enabled(false);
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const JsonValue doc = JsonValue::parse(os.str());
  ASSERT_EQ(doc.at("traceEvents").size(), 1u);
  const JsonValue& ev = doc.at("traceEvents").at(0);
  EXPECT_EQ(ev.at("name").as_string(), "phase");
  EXPECT_EQ(ev.at("ph").as_string(), "X");
  EXPECT_TRUE(ev.at("ts").is_number());
  EXPECT_TRUE(ev.at("dur").is_number());
  tracer.clear();
}

TEST(Trace, ConcurrentSweepWorkerSpansProduceValidChromeTrace) {
  std::vector<SweepTask> tasks;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SweepTask t;
    t.design = "fig1";
    t.make_design = [] { return make_fig1(); };
    t.seed = seed;
    t.options.sim_lanes = ParallelSimulator::kMaxLanes;
    t.options.sim_cycles = 64 * ParallelSimulator::kMaxLanes;  // 64 cycles per lane
    t.options.warmup_cycles = 0;
    tasks.push_back(std::move(t));
  }
  // One thread included: a one-thread sweep still runs its tasks on a
  // worker, never on the caller.
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    Tracer& tracer = Tracer::instance();
    tracer.clear();
    tracer.set_enabled(true);
    SweepRunner runner(threads);
    const SweepOutcome out = runner.run(tasks);
    tracer.set_enabled(false);
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(out.results.size(), tasks.size());

    // One sweep.task span per task (worker threads) + the caller's
    // sweep.run span, with per-thread lanes: the caller never executes
    // tasks, so its tid differs from every worker's.
    const std::vector<TraceEvent> events = tracer.events();
    std::set<int> task_tids;
    int run_tid = -1;
    std::size_t task_spans = 0;
    for (const TraceEvent& e : events) {
      if (e.name == "sweep.task") {
        ++task_spans;
        task_tids.insert(e.tid);
      } else if (e.name == "sweep.run") {
        run_tid = e.tid;
      }
    }
    EXPECT_EQ(task_spans, tasks.size());
    EXPECT_NE(run_tid, -1);
    EXPECT_EQ(task_tids.count(run_tid), 0u);
    EXPECT_LE(task_tids.size(), threads);

    // The serialized trace is one valid JSON document whose events all
    // carry the Chrome trace-event fields.
    std::ostringstream os;
    tracer.write_chrome_trace(os);
    const JsonValue doc = JsonValue::parse(os.str());
    ASSERT_EQ(doc.at("traceEvents").size(), events.size());
    for (std::size_t i = 0; i < doc.at("traceEvents").size(); ++i) {
      const JsonValue& ev = doc.at("traceEvents").at(i);
      EXPECT_EQ(ev.at("ph").as_string(), "X");
      EXPECT_TRUE(ev.at("ts").is_number());
      EXPECT_TRUE(ev.at("dur").is_number());
      EXPECT_GE(ev.at("tid").as_number(), 1.0);
    }
    tracer.clear();
  }
}

// ------------------------------------------------------------- Metrics

TEST(Metrics, CounterRegistryThreadSafety) {
  MetricsRegistry& m = metrics();
  m.counter("test_obs.concurrent").reset();
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&m] {
      // Re-resolve the name per increment: the get-or-create path must
      // be as thread-safe as the increment itself.
      for (int i = 0; i < kIncrements; ++i) m.counter("test_obs.concurrent").add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(m.counter("test_obs.concurrent").value(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(Metrics, GaugeAndHistogram) {
  MetricsRegistry& m = metrics();
  m.gauge("test_obs.gauge").set(2.5);
  EXPECT_DOUBLE_EQ(m.gauge("test_obs.gauge").value(), 2.5);

  Histogram& h = m.histogram("test_obs.hist");
  h.reset();
  for (double v : {0.5, 1.0, 2.0, 4.0, 100.0}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.sum(), 107.5);
  const JsonValue j = h.to_json();
  EXPECT_EQ(j.at("count").as_number(), 5.0);
  EXPECT_TRUE(j.at("buckets").size() >= 1u);
}

TEST(Metrics, HistogramEdgeCases) {
  MetricsRegistry& m = metrics();
  Histogram& h = m.histogram("test_obs.hist_edge");

  // Single sample: min == max == the sample, mean is exact.
  h.reset();
  h.record(3.25);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 3.25);
  EXPECT_DOUBLE_EQ(h.max(), 3.25);
  EXPECT_DOUBLE_EQ(h.mean(), 3.25);

  // Negative values are legal samples (share the lowest bucket).
  h.reset();
  h.record(-5.0);
  h.record(-1.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_DOUBLE_EQ(h.max(), -1.0);
  EXPECT_DOUBLE_EQ(h.sum(), -6.0);

  // NaN samples are dropped entirely.
  h.reset();
  h.record(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.count(), 0u);
  h.record(2.0);
  h.record(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 2.0);
  EXPECT_DOUBLE_EQ(h.min(), 2.0);

  // ±inf samples count, clamp to the extreme buckets, and propagate
  // into min/max — and the JSON snapshot stays parseable (non-finite
  // doubles serialize as null).
  h.reset();
  h.record(std::numeric_limits<double>::infinity());
  h.record(-std::numeric_limits<double>::infinity());
  h.record(1.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_TRUE(std::isinf(h.max()) && h.max() > 0);
  EXPECT_TRUE(std::isinf(h.min()) && h.min() < 0);
  const JsonValue j = h.to_json();
  EXPECT_EQ(j.at("count").as_number(), 3.0);
  // Non-finite doubles serialize as null, so the snapshot stays valid
  // JSON and round-trips.
  const JsonValue round = JsonValue::parse(j.dump());
  EXPECT_TRUE(round.at("max").is_null());
  EXPECT_TRUE(round.at("min").is_null());
  EXPECT_EQ(round.dump(), JsonValue::parse(round.dump()).dump());
  h.reset();
}

TEST(Metrics, SnapshotGroupsDottedNames) {
  MetricsRegistry& m = metrics();
  m.counter("test_obs.snap_a").reset();
  m.counter("test_obs.snap_a").add(7);
  const JsonValue snap = m.snapshot();
  ASSERT_TRUE(snap.contains("test_obs"));
  EXPECT_EQ(snap.at("test_obs").at("snap_a").as_number(), 7.0);
}

// ---------------------------------------------------------- Run report

TEST(RunReport, RoundTripsThroughParser) {
  IsolationOptions opt;
  opt.sim_cycles = 512;
  opt.warmup_cycles = 8;
  const IsolationResult res = run_operand_isolation(
      make_fig1(8), [] { return std::make_unique<UniformStimulus>(7); }, opt);
  ASSERT_FALSE(res.iterations.empty());

  std::ostringstream os;
  build_run_report(res, opt).write(os, 1);
  const JsonValue doc = JsonValue::parse(os.str());

  EXPECT_EQ(doc.at("schema").as_string(), "opiso.run_report/v1");
  EXPECT_EQ(doc.at("design").as_string(), res.netlist.name());
  EXPECT_EQ(doc.at("options").at("sim_cycles").as_number(), 512.0);
  EXPECT_DOUBLE_EQ(doc.at("summary").at("power_after_mw").as_number(), res.power_after_mw);
  EXPECT_EQ(doc.at("summary").at("modules_isolated").as_number(),
            static_cast<double>(res.records.size()));

  // Per-iteration candidate decision tables mirror the in-memory log.
  ASSERT_EQ(doc.at("iterations").size(), res.iterations.size());
  const JsonValue& it0 = doc.at("iterations").at(0);
  ASSERT_EQ(it0.at("candidates").size(), res.iterations[0].evaluations.size());
  const CandidateEvaluation& ev0 = res.iterations[0].evaluations[0];
  const JsonValue& c0 = it0.at("candidates").at(0);
  EXPECT_EQ(c0.at("cell").as_string(), ev0.cell_name);
  EXPECT_DOUBLE_EQ(c0.at("h").as_number(), ev0.h);
  EXPECT_EQ(c0.at("decision").as_string(), candidate_decision(ev0));

  // Counters from the layers the run exercised are present.
  EXPECT_GT(doc.at("metrics").at("sim").at("cycles").as_number(), 0.0);
  EXPECT_GT(doc.at("metrics").at("sta").at("runs").as_number(), 0.0);
  EXPECT_GT(doc.at("metrics").at("bdd").at("managers").as_number(), 0.0);

  // The whole document survives a parse → dump → parse cycle.
  EXPECT_EQ(JsonValue::parse(doc.dump()).dump(), doc.dump());

  // The streamed text is the tree's: nothing ran between the calls, so
  // all three carry one metrics snapshot.
  JsonWriter w(1);
  write_run_report(w, res, opt);
  EXPECT_EQ(w.str(), build_run_report(res, opt).dump(1));
  EXPECT_EQ(w.str(), JsonValue::parse(w.str()).dump(1));
}

TEST(RunReport, DecisionStrings) {
  CandidateEvaluation ev;
  EXPECT_STREQ(candidate_decision(ev), "rejected");
  ev.slack_vetoed = true;
  EXPECT_STREQ(candidate_decision(ev), "slack-veto");
  ev.legal = false;
  EXPECT_STREQ(candidate_decision(ev), "illegal");
  ev.isolated_now = true;
  EXPECT_STREQ(candidate_decision(ev), "isolated");
}

}  // namespace
}  // namespace opiso::obs
