#pragma once
// Internal: the six built-in lint passes, in the order of the table
// builtin_passes() returns. Each appends its findings and may record a
// degradation note for the report.

#include <string>
#include <vector>

#include "lint/lint.hpp"

namespace opiso::lint {

void comb_loop_pass(LintContext& ctx, std::vector<Finding>& out, std::string& note);
void width_pass(LintContext& ctx, std::vector<Finding>& out, std::string& note);
void drivers_pass(LintContext& ctx, std::vector<Finding>& out, std::string& note);
void dead_logic_pass(LintContext& ctx, std::vector<Finding>& out, std::string& note);
void isolation_soundness_pass(LintContext& ctx, std::vector<Finding>& out, std::string& note);
void isolation_overhead_pass(LintContext& ctx, std::vector<Finding>& out, std::string& note);

}  // namespace opiso::lint
