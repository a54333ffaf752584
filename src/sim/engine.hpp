#pragma once
// Shared vocabulary of the two simulation engines.
//
// ProbeHost is the narrow interface the savings estimator needs to
// register its joint-probability probes: both the scalar Simulator and
// the bit-parallel ParallelSimulator implement it, so every activity
// consumer (power models, savings model, isolation loop) is engine-
// agnostic — it reads the resulting ActivityStats and never cares how
// many lanes produced them.

#include <cstddef>
#include <cstdint>

#include "boolfn/expr.hpp"

namespace opiso {

/// Which simulation engine to drive a measurement with. Scalar is the
/// reference/oracle path; Parallel evaluates up to 64 stimulus lanes
/// per netlist pass (see sim/parallel_sim.hpp).
enum class SimEngineKind { Scalar, Parallel };

[[nodiscard]] constexpr const char* sim_engine_name(SimEngineKind kind) {
  return kind == SimEngineKind::Scalar ? "scalar" : "parallel";
}

/// Anything probes can be registered on. add_probe returns the probe
/// index used with ActivityStats::probe_probability and friends.
class ProbeHost {
 public:
  virtual ~ProbeHost() = default;
  virtual std::size_t add_probe(ExprRef expr) = 0;
};

}  // namespace opiso
