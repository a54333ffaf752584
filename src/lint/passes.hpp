#pragma once
// Internal: factories for the built-in lint passes. builtin_passes()
// calls these explicitly — static-initializer registration would be
// dropped by the linker for unreferenced objects in a static library.

#include <memory>

#include "lint/lint.hpp"

namespace opiso::lint {

std::unique_ptr<LintPass> make_comb_loop_pass();
std::unique_ptr<LintPass> make_width_pass();
std::unique_ptr<LintPass> make_drivers_pass();
std::unique_ptr<LintPass> make_dead_logic_pass();
std::unique_ptr<LintPass> make_isolation_soundness_pass();
std::unique_ptr<LintPass> make_isolation_overhead_pass();

}  // namespace opiso::lint
