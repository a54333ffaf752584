#pragma once
// Human-readable summary of an isolation run: power/area/slack and the
// per-record listing — the bits a user pastes into a review when
// deciding whether to accept the transform. The per-iteration candidate
// table and the Eq. 1–5 narratives are views of the run report
// (obs/run_report.hpp, `opiso explain`).

#include <string>

#include "isolation/algorithm.hpp"

namespace opiso {

/// Multi-line summary: power/area/slack before → after, module list.
[[nodiscard]] std::string format_isolation_summary(const IsolationResult& result);

}  // namespace opiso
