#pragma once
// ProbeHost is the narrow interface the savings estimator needs to
// register its joint-probability probes. The plane engine implements
// it (and so does the tests' reference interpreter), so every activity
// consumer (power models, savings model, isolation loop) reads the
// resulting ActivityStats and never cares how many lanes produced them.

#include <cstddef>

#include "boolfn/expr.hpp"

namespace opiso {

/// Anything probes can be registered on. add_probe returns the probe
/// index used with ActivityStats::probe_probability and friends.
class ProbeHost {
 public:
  virtual ~ProbeHost() = default;
  virtual std::size_t add_probe(ExprRef expr) = 0;
};

}  // namespace opiso
