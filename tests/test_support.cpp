// Tests for the support foundation: deterministic RNG, strong ids,
// error macros, and the simulator's warm-up facility.
#include <gtest/gtest.h>

#include "obs/json.hpp"
#include "reference_simulator.hpp"
#include "support/rng.hpp"
#include "support/strong_id.hpp"
#include "util/error.hpp"

namespace opiso {
namespace {

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    (void)c.next_u64();
  }
  Rng a2(42), c2(43);
  EXPECT_NE(a2.next_u64(), c2.next_u64());
}

TEST(Rng, BitsRespectWidth) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LE(r.next_bits(5), 31u);
    EXPECT_LE(r.next_bits(1), 1u);
  }
  // Width 64 must not shift out of range.
  (void)r.next_bits(64);
}

TEST(Rng, BernoulliFrequency) {
  Rng r(11);
  int hits = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) hits += r.next_bool(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.3, 0.02);
}

TEST(Rng, RangeInclusive) {
  Rng r(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = r.next_range(3, 7);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 7u);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(StrongId, DistinctTypesAndInvalid) {
  struct TagA;
  using IdA = StrongId<TagA>;
  IdA a{3};
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(a.value(), 3u);
  EXPECT_FALSE(IdA::invalid().valid());
  EXPECT_EQ(IdA{3}, a);
  EXPECT_NE(IdA{4}, a);
  EXPECT_LT(a, IdA{4});
}

TEST(Error, RequireMacroThrowsWithContext) {
  try {
    OPISO_REQUIRE(1 == 2, "math is broken");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("math is broken"), std::string::npos);
  }
}

TEST(Error, HierarchyIsCatchable) {
  EXPECT_THROW(throw NetlistError("x"), Error);
  EXPECT_THROW(throw ParseError("x"), Error);
  EXPECT_THROW(throw SimError("x"), Error);
  // Everything — including the legacy generic Error — is an OpisoError,
  // so drivers can catch one type and always get a structured record.
  EXPECT_THROW(throw Error("x"), OpisoError);
  EXPECT_THROW(throw ResourceError(ErrCode::ResourceBddNodes, "x"), OpisoError);
  EXPECT_THROW(throw IoError("x"), OpisoError);
}

TEST(Error, CodesCarryStableWireNames) {
  // These names are part of the report schema (opiso.task_failures/v1,
  // --json-errors): they must never change, only be appended to.
  EXPECT_STREQ(error_code_name(ErrCode::Internal), "internal");
  EXPECT_STREQ(error_code_name(ErrCode::Io), "io");
  EXPECT_STREQ(error_code_name(ErrCode::ParseSyntax), "parse.syntax");
  EXPECT_STREQ(error_code_name(ErrCode::ParseNumber), "parse.number");
  EXPECT_STREQ(error_code_name(ErrCode::ParseWidth), "parse.width");
  EXPECT_STREQ(error_code_name(ErrCode::ParseDuplicate), "parse.duplicate");
  EXPECT_STREQ(error_code_name(ErrCode::ParseUnknownRef), "parse.unknown-ref");
  EXPECT_STREQ(error_code_name(ErrCode::ParseDepth), "parse.depth");
  EXPECT_STREQ(error_code_name(ErrCode::JsonDepth), "json.depth");
  EXPECT_STREQ(error_code_name(ErrCode::ResourceBddNodes), "resource.bdd-nodes");
  EXPECT_STREQ(error_code_name(ErrCode::ResourceIteCache), "resource.ite-cache");
  EXPECT_STREQ(error_code_name(ErrCode::ResourceWallClock), "resource.wall-clock");
  EXPECT_STREQ(error_code_name(ErrCode::ResourceStimulus), "resource.stimulus");
  EXPECT_STREQ(error_code_name(ErrCode::TaskFailed), "task.failed");
  EXPECT_STREQ(error_code_name(ErrCode::TaskSkipped), "task.skipped");
}

TEST(Error, DefaultsAndAccessors) {
  const ParseError pe(ErrCode::ParseWidth, "rtl line 7: width 0 out of range", 7);
  EXPECT_EQ(pe.code(), ErrCode::ParseWidth);
  EXPECT_EQ(pe.input_line(), 7);
  EXPECT_EQ(pe.severity(), Severity::Error);
  // Resource errors are recoverable by design.
  const ResourceError re(ErrCode::ResourceWallClock, "over budget");
  EXPECT_EQ(re.severity(), Severity::Warning);
  // what() stays the plain message (no code prefix) so existing
  // message-matching tests and logs are unchanged.
  EXPECT_STREQ(re.what(), "over budget");
}

TEST(Error, JsonRenderingEscapesAndRoundTrips) {
  const ParseError e(ErrCode::ParseSyntax, "bad \"quoted\"\tthing\n", 3);
  const std::string json = e.json();
  // The hand-rendered JSON must be parseable by the real parser and
  // reproduce every structured field.
  const obs::JsonValue doc = obs::JsonValue::parse(json);
  EXPECT_EQ(doc.at("error").at("code").as_string(), "parse.syntax");
  EXPECT_EQ(doc.at("error").at("severity").as_string(), "error");
  EXPECT_EQ(doc.at("error").at("message").as_string(), "bad \"quoted\"\tthing\n");
  EXPECT_EQ(doc.at("error").at("input_line").as_number(), 3.0);
}

TEST(Error, RequireFailureIsStructured) {
  try {
    OPISO_REQUIRE(false, "broken invariant");
    FAIL() << "expected throw";
  } catch (const OpisoError& e) {
    EXPECT_EQ(e.code(), ErrCode::Internal);
    EXPECT_NE(e.where().file, nullptr);
    EXPECT_GT(e.where().line, 0);
  }
}

TEST(Warmup, DiscardsResetTransient) {
  // Register comes out of reset at 0 and jumps to the stimulus value:
  // without warm-up that jump pollutes the toggle statistics.
  Netlist nl;
  NetId d = nl.add_input("d", 8);
  NetId one = nl.add_const("one", 1, 1);
  NetId q = nl.add_reg("q", d, one);
  nl.add_output("o", q);

  ConstantStimulus stim;
  stim.set("d", 0xFF);
  Simulator cold(nl);
  cold.run(stim, 50);
  EXPECT_GT(cold.stats().toggles[q.value()], 0u);  // reset jump counted

  Simulator warm(nl);
  warm.warmup(stim, 4);
  warm.run(stim, 50);
  EXPECT_EQ(warm.stats().toggles[q.value()], 0u);  // steady state only
  EXPECT_EQ(warm.stats().cycles, 50u);
}

}  // namespace
}  // namespace opiso
