#pragma once
// Human-readable reports for isolation runs: summary block, per-record
// listing, and per-iteration candidate evaluations — the bits a user
// pastes into a review when deciding whether to accept the transform.

#include <string>

#include "isolation/algorithm.hpp"

namespace opiso {

/// Multi-line summary: power/area/slack before → after, module list.
[[nodiscard]] std::string format_isolation_summary(const IsolationResult& result);

/// Per-iteration table of every candidate evaluation (cost terms, h,
/// veto flags, decisions).
[[nodiscard]] std::string format_iteration_log(const IsolationResult& result);

}  // namespace opiso
