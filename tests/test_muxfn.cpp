// Tests for multiplexing-function derivation (Sec. 4.1): fanin networks
// with g^k conditions and fanout-candidate discovery.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "boolfn/bdd.hpp"
#include "designs/designs.hpp"
#include "isolation/activation.hpp"
#include "isolation/muxfn.hpp"

namespace opiso {
namespace {

struct Ctx {
  Netlist nl;
  ExprPool pool;
  NetVarMap vars;

  explicit Ctx(Netlist design) : nl(std::move(design)) {}
  CellId cell(const std::string& out_net) { return nl.net(nl.find_net(out_net)).driver; }
  ExprRef v(const std::string& net) { return pool.var(vars.var_of(nl, nl.find_net(net))); }
  bool equivalent(ExprRef a, ExprRef b) {
    BddManager m;
    return m.equal(m.from_expr(pool, a), m.from_expr(pool, b));
  }
  SteeringNetwork steering() {
    return SteeringNetwork(nl, pool, vars,
                           [this](CellId id) { return cell_kind_is_arith(nl.cell(id).kind); });
  }
};

TEST(MuxFn, Fig1FaninOfA0MatchesPaper) {
  Ctx c(make_fig1(8));
  // Input A (port 0) of a0 is fed by a1 through m0/m1: g = S1·!S0.
  const FaninNetwork fan = c.steering().fanin(c.cell("a0"), 0);
  ASSERT_EQ(fan.candidates.size(), 1u);
  EXPECT_EQ(fan.candidates[0].candidate, c.cell("a1"));
  EXPECT_TRUE(c.equivalent(fan.candidates[0].condition,
                           c.pool.land(c.v("S1"), c.pool.lnot(c.v("S0")))));
  // The same muxes can also steer C or E (primary inputs) to the pin.
  EXPECT_TRUE(fan.has_noncandidate_source);
}

TEST(MuxFn, Fig1FaninPortBHasNoCandidates) {
  Ctx c(make_fig1(8));
  const FaninNetwork fan = c.steering().fanin(c.cell("a0"), 1);
  EXPECT_TRUE(fan.candidates.empty());
  EXPECT_TRUE(fan.has_noncandidate_source);
}

TEST(MuxFn, Fig1FanoutOfA1ReachesA0) {
  Ctx c(make_fig1(8));
  const auto fanouts = c.steering().fanouts(c.cell("a1"));
  ASSERT_EQ(fanouts.size(), 1u);
  EXPECT_EQ(fanouts[0].candidate, c.cell("a0"));
  EXPECT_EQ(fanouts[0].port, 0);
  EXPECT_TRUE(c.equivalent(fanouts[0].condition,
                           c.pool.land(c.v("S1"), c.pool.lnot(c.v("S0")))));
}

TEST(MuxFn, DirectConnectionHasConditionOne) {
  // c_i directly wired into c_j (Fig. 3 of the paper): g = 1.
  Netlist nl;
  NetId a = nl.add_input("a", 8);
  NetId b = nl.add_input("b", 8);
  NetId en = nl.add_input("en", 1);
  NetId s1 = nl.add_binop(CellKind::Add, "s1", a, b);
  NetId s2 = nl.add_binop(CellKind::Add, "s2", s1, b);
  NetId r = nl.add_reg("r", s2, en);
  nl.add_output("o", r);
  Ctx c(std::move(nl));
  const auto fanouts = c.steering().fanouts(c.cell("s1"));
  ASSERT_EQ(fanouts.size(), 1u);
  EXPECT_TRUE(c.pool.is_const1(fanouts[0].condition));
  EXPECT_EQ(fanouts[0].port, 0);
}

TEST(MuxFn, ParallelPathsOrTheirConditions) {
  // s1 reaches the consumer through both mux legs -> g = !sel + sel = 1.
  Netlist nl;
  NetId a = nl.add_input("a", 8);
  NetId b = nl.add_input("b", 8);
  NetId sel = nl.add_input("sel", 1);
  NetId en = nl.add_input("en", 1);
  NetId s1 = nl.add_binop(CellKind::Add, "s1", a, b);
  NetId m = nl.add_mux2("m", sel, s1, s1);
  NetId s2 = nl.add_binop(CellKind::Add, "s2", m, b);
  NetId r = nl.add_reg("r", s2, en);
  nl.add_output("o", r);
  Ctx c(std::move(nl));
  const auto fanouts = c.steering().fanouts(c.cell("s1"));
  ASSERT_EQ(fanouts.size(), 1u);
  EXPECT_TRUE(c.pool.is_const1(fanouts[0].condition));
}

TEST(MuxFn, StopsAtCandidatesInBetween) {
  // s1 -> s2 -> s3: fanout of s1 reports only s2 (paths terminate at the
  // first candidate; s3's exposure is s2's business).
  Netlist nl;
  NetId a = nl.add_input("a", 8);
  NetId b = nl.add_input("b", 8);
  NetId en = nl.add_input("en", 1);
  NetId s1 = nl.add_binop(CellKind::Add, "s1", a, b);
  NetId s2 = nl.add_binop(CellKind::Add, "s2", s1, b);
  NetId s3 = nl.add_binop(CellKind::Add, "s3", s2, b);
  NetId r = nl.add_reg("r", s3, en);
  nl.add_output("o", r);
  Ctx c(std::move(nl));
  const auto fanouts = c.steering().fanouts(c.cell("s1"));
  ASSERT_EQ(fanouts.size(), 1u);
  EXPECT_EQ(fanouts[0].candidate, c.cell("s2"));
}

TEST(MuxFn, FanoutThroughRegistersIsCut) {
  // Sequential boundary: fanout candidates behind a register are not
  // reported (the f+_r = 1 cut).
  Netlist nl = make_design1(8);
  Ctx c(std::move(nl));
  const auto fanouts = c.steering().fanouts(c.cell("mul1"));
  EXPECT_TRUE(fanouts.empty());
}

TEST(MuxFn, Design1Add2FeedsAdd3) {
  Ctx c(make_design1(8));
  const auto fanouts = c.steering().fanouts(c.cell("add2"));
  ASSERT_EQ(fanouts.size(), 1u);
  EXPECT_EQ(fanouts[0].candidate, c.cell("add3"));
  EXPECT_TRUE(c.equivalent(fanouts[0].condition, c.pool.lnot(c.v("sel"))));
}

// The fanin and the fanout walk traverse the same steering network in
// opposite directions, so each is an oracle for the other: c_i's
// fanouts hold (c_j, p, g) exactly when the fanin network of c_j's
// input p holds c_i with a condition g' ≡ g. A walk that drops a cell
// loses a pair (or a path's term) on one side only.
struct MirrorCase {
  std::string name;
  std::function<Netlist()> make;
  bool has_pairs = false;  ///< the design is known to have connected candidates
};

void PrintTo(const MirrorCase& c, std::ostream* os) { *os << c.name; }

std::vector<MirrorCase> mirror_cases() {
  std::vector<MirrorCase> cases;
  RandomDesignConfig latches;
  latches.allow_latches = true;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    const std::string n = std::to_string(seed);
    cases.push_back({"random" + n, [seed] { return make_random_datapath(seed); }});
    cases.push_back({"random_latches" + n, [=] { return make_random_datapath(seed, latches); }});
  }
  cases.push_back(
      {"parametric_8x3", [] { return make_parametric_datapath({8, 3, 8, true}); }, true});
  cases.push_back({"design2", [] { return make_design2(); }, true});
  cases.push_back({"fig1", [] { return make_fig1(); }, true});
  return cases;
}

class MuxFnMirror : public ::testing::TestWithParam<MirrorCase> {};

TEST_P(MuxFnMirror, FaninAndFanoutNetworksMirrorEachOther) {
  Ctx c(GetParam().make());
  SteeringNetwork steering = c.steering();
  // (c_i, c_j, port of c_j) -> connection condition, from each side.
  using Pair = std::tuple<std::uint32_t, std::uint32_t, int>;
  std::map<Pair, ExprRef> forward;
  std::map<Pair, ExprRef> backward;
  for (CellId id : c.nl.cell_ids()) {
    if (!cell_kind_is_arith(c.nl.cell(id).kind)) continue;
    for (const FanoutConnection& fc : steering.fanouts(id)) {
      EXPECT_TRUE(forward.emplace(Pair{id.value(), fc.candidate.value(), fc.port}, fc.condition)
                      .second);
    }
    for (int p = 0; p < static_cast<int>(c.nl.cell(id).ins.size()); ++p) {
      for (const ConnectedCandidate& cc : steering.fanin(id, p).candidates) {
        EXPECT_TRUE(
            backward.emplace(Pair{cc.candidate.value(), id.value(), p}, cc.condition).second);
      }
    }
  }
  EXPECT_EQ(forward.size(), backward.size());
  if (GetParam().has_pairs) {
    EXPECT_FALSE(forward.empty());
  }
  for (const auto& [pair, g] : forward) {
    const auto [i, j, p] = pair;
    const std::string where = c.nl.cell(CellId{i}).name + " -> " + c.nl.cell(CellId{j}).name +
                              " port " + std::to_string(p);
    const auto it = backward.find(pair);
    ASSERT_NE(it, backward.end()) << where << " is missing from the fanin network";
    EXPECT_TRUE(c.equivalent(g, it->second)) << where << ": conditions differ";
  }
}

INSTANTIATE_TEST_SUITE_P(Designs, MuxFnMirror, ::testing::ValuesIn(mirror_cases()),
                         [](const ::testing::TestParamInfo<MirrorCase>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace opiso
