// Complexity benchmark (google-benchmark): Sec. 3 claims the activation
// functions of all modules are derived in O(|V|+|E|) by one backward
// breadth-first pass. We grow the parametric datapath and time
// derivation, candidate identification, STA and one simulated cycle
// batch; derivation time per cell should stay ~flat.
//
// The BM_ParallelSimulate and BM_Sweep* groups compare simulation
// throughput: one plane-engine lane vs 8 and 64 lanes vs the threaded
// sweep runner. items_per_second is lane-cycles/sec everywhere, so the
// ratios read directly as speedups over BM_ParallelSimulate/1.

#include <benchmark/benchmark.h>

#include "designs/designs.hpp"
#include "isolation/algorithm.hpp"
#include "netlist/traversal.hpp"
#include "sim/parallel_sim.hpp"
#include "sim/sweep.hpp"
#include "timing/sta.hpp"

namespace {

using namespace opiso;

Netlist design_of_size(int lanes) {
  return make_parametric_datapath({static_cast<unsigned>(lanes), 4, 8, true});
}

void BM_DeriveActivation(benchmark::State& state) {
  const Netlist nl = design_of_size(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    ExprPool pool;
    NetVarMap vars;
    const ActivationAnalysis aa = derive_activation(nl, pool, vars);
    benchmark::DoNotOptimize(aa.obs.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nl.num_cells()));
  state.counters["cells"] = static_cast<double>(nl.num_cells());
}
BENCHMARK(BM_DeriveActivation)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_IdentifyCandidates(benchmark::State& state) {
  const Netlist nl = design_of_size(static_cast<int>(state.range(0)));
  ExprPool pool;
  NetVarMap vars;
  const ActivationAnalysis aa = derive_activation(nl, pool, vars);
  const auto blocks = combinational_blocks(nl);
  for (auto _ : state) {
    auto cands = identify_candidates(nl, blocks, aa, pool, CandidateConfig{});
    benchmark::DoNotOptimize(cands.data());
  }
}
BENCHMARK(BM_IdentifyCandidates)->Arg(4)->Arg(16)->Arg(64);

void BM_Sta(benchmark::State& state) {
  const Netlist nl = design_of_size(static_cast<int>(state.range(0)));
  const DelayModel dm;
  for (auto _ : state) {
    const TimingReport rep = run_sta(nl, dm);
    benchmark::DoNotOptimize(rep.worst_slack);
  }
}
BENCHMARK(BM_Sta)->Arg(4)->Arg(16)->Arg(64);

void BM_Simulate1k(benchmark::State& state) {
  const Netlist nl = design_of_size(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    ParallelSimulator sim(nl, 1);
    sim.set_stimulus([](unsigned) { return std::make_unique<UniformStimulus>(7); });
    sim.run(1000);
    benchmark::DoNotOptimize(sim.stats().cycles);
  }
  state.counters["cells"] = static_cast<double>(nl.num_cells());
}
BENCHMARK(BM_Simulate1k)->Arg(1)->Arg(4)->Arg(16);

// --- lane scaling: identical workload (design2, uniform stimuli,
// lane-seeded streams), lane-cycles/sec as the common unit.

void BM_ParallelSimulate(benchmark::State& state) {
  const Netlist nl = make_design2();
  const auto lanes = static_cast<unsigned>(state.range(0));
  std::uint64_t lane_cycles = 0;
  for (auto _ : state) {
    ParallelSimulator sim(nl, lanes);
    sim.set_stimulus([](unsigned lane) {
      return std::make_unique<UniformStimulus>(sweep_lane_seed(1, lane));
    });
    sim.run(4096 / lanes);
    benchmark::DoNotOptimize(sim.stats().cycles);
    lane_cycles += (4096 / lanes) * lanes;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(lane_cycles));
}
BENCHMARK(BM_ParallelSimulate)->Arg(1)->Arg(8)->Arg(64);

// Thread scaling of the sweep runner: 16 independent (seed) tasks on
// the 64-lane engine. At 8 threads on a multicore host this multiplies
// the single-thread 64-lane throughput by the core count.
void BM_SweepThreads(benchmark::State& state) {
  std::vector<SweepTask> tasks;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SweepTask t;
    t.design = "design2";
    t.make_design = [] { return make_design2(); };
    t.seed = seed;
    t.options.sim_lanes = ParallelSimulator::kMaxLanes;
    t.options.sim_cycles = 1024 * ParallelSimulator::kMaxLanes;  // 1024 cycles per lane
    t.options.warmup_cycles = 0;
    tasks.push_back(t);
  }
  SweepRunner runner(static_cast<unsigned>(state.range(0)));
  std::uint64_t lane_cycles = 0;
  for (auto _ : state) {
    const SweepOutcome out = runner.run(tasks);
    if (!out.ok()) {
      state.SkipWithError(("sweep task failed: " + out.failures[0].message).c_str());
      break;
    }
    benchmark::DoNotOptimize(out.results.data());
    for (const SweepResult& r : out.results) lane_cycles += r.lane_cycles;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(lane_cycles));
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_SweepThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_FullIsolationFlow(benchmark::State& state) {
  const Netlist nl = design_of_size(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    IsolationOptions opt;
    opt.sim_cycles = 512;
    const IsolationResult res = run_operand_isolation(
        nl, [] { return std::make_unique<UniformStimulus>(11); }, opt);
    benchmark::DoNotOptimize(res.power_after_mw);
  }
}
BENCHMARK(BM_FullIsolationFlow)->Arg(1)->Arg(4)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
