# One binary per reproduced table/figure (see DESIGN.md experiment index).
# All binaries land in ${CMAKE_BINARY_DIR}/bench with nothing else, so
# `for b in build/bench/*; do $b; done` runs the full evaluation.
set(OPISO_BENCH_LIBS opiso_isolation opiso_baseline opiso_designs opiso_lower opiso_obs
    opiso_sweep opiso_util)

# Configure-time provenance for the opiso.bench/v1 envelope every
# BENCH_*.json carries: which build produced the numbers, on what
# architecture. Falls back to "unknown" outside a git checkout.
execute_process(COMMAND git describe --always --dirty
                WORKING_DIRECTORY ${CMAKE_SOURCE_DIR}
                OUTPUT_VARIABLE OPISO_GIT_DESCRIBE
                OUTPUT_STRIP_TRAILING_WHITESPACE
                ERROR_QUIET
                RESULT_VARIABLE OPISO_GIT_DESCRIBE_RC)
if(NOT OPISO_GIT_DESCRIBE_RC EQUAL 0 OR OPISO_GIT_DESCRIBE STREQUAL "")
  set(OPISO_GIT_DESCRIBE "unknown")
endif()

function(opiso_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE ${OPISO_BENCH_LIBS} ${ARGN})
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR}/src ${CMAKE_SOURCE_DIR}/bench)
  target_compile_definitions(${name} PRIVATE
      OPISO_GIT_DESCRIBE="${OPISO_GIT_DESCRIBE}"
      OPISO_HOST_ARCH="${CMAKE_SYSTEM_PROCESSOR}")
  set_target_properties(${name} PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

opiso_add_bench(bench_table1)
opiso_add_bench(bench_table2)
opiso_add_bench(bench_activation_sweep)
opiso_add_bench(bench_ablation)
opiso_add_bench(bench_model_accuracy)
opiso_add_bench(bench_baselines)
opiso_add_bench(bench_power_models opiso_lower)
opiso_add_bench(bench_scaling benchmark::benchmark)
opiso_add_bench(bench_sweep)
opiso_add_bench(bench_confidence opiso_frontend)
target_compile_definitions(bench_confidence PRIVATE
    OPISO_RTL_DIR="${CMAKE_SOURCE_DIR}/designs_rtl")
opiso_add_bench(bench_rewrite opiso_frontend opiso_opt)
target_compile_definitions(bench_rewrite PRIVATE
    OPISO_RTL_DIR="${CMAKE_SOURCE_DIR}/designs_rtl")

# Bench smoke: the two table benches run in well under a second, so CI
# (and any local `ctest -L bench-smoke`) regenerates BENCH_table{1,2}.json
# and gates the reproduced savings against the committed expected
# subsets via `opiso report diff` (tolerances in ci/bench_tolerances.json).
add_test(NAME bench_table_tolerances
         COMMAND sh -c "mkdir -p ${CMAKE_BINARY_DIR}/bench_json && \
OPISO_BENCH_JSON_DIR=${CMAKE_BINARY_DIR}/bench_json $<TARGET_FILE:bench_table1> && \
OPISO_BENCH_JSON_DIR=${CMAKE_BINARY_DIR}/bench_json $<TARGET_FILE:bench_table2> && \
$<TARGET_FILE:opiso_cli> report diff ${CMAKE_SOURCE_DIR}/ci/golden/BENCH_table1.expected.json \
${CMAKE_BINARY_DIR}/bench_json/BENCH_table1.json \
--tolerances ${CMAKE_SOURCE_DIR}/ci/bench_tolerances.json --subset && \
$<TARGET_FILE:opiso_cli> report diff ${CMAKE_SOURCE_DIR}/ci/golden/BENCH_table2.expected.json \
${CMAKE_BINARY_DIR}/bench_json/BENCH_table2.json \
--tolerances ${CMAKE_SOURCE_DIR}/ci/bench_tolerances.json --subset")
set_tests_properties(bench_table_tolerances PROPERTIES TIMEOUT 300 LABELS bench-smoke)

# Perf-trajectory artifact shape: regenerate BENCH_sweep.json and hold
# its structure (schema, bench set, deterministic lane_cycles work
# measure) to the committed ci/bench_baseline snapshot. Timing fields
# are ignored here — the 10% wall-clock gate runs in the perf-trajectory
# CI job against a rolling same-runner baseline, where the numbers are
# actually comparable.
add_test(NAME bench_sweep_structural
         COMMAND sh -c "mkdir -p ${CMAKE_BINARY_DIR}/bench_json && \
OPISO_BENCH_JSON_DIR=${CMAKE_BINARY_DIR}/bench_json $<TARGET_FILE:bench_sweep> && \
$<TARGET_FILE:opiso_cli> report diff \
${CMAKE_SOURCE_DIR}/ci/bench_baseline/BENCH_sweep.baseline.json \
${CMAKE_BINARY_DIR}/bench_json/BENCH_sweep.json \
--tolerances ${CMAKE_SOURCE_DIR}/ci/bench_baseline/sweep_structural_tolerances.json --subset")
set_tests_properties(bench_sweep_structural PROPERTIES TIMEOUT 300 LABELS bench-smoke)

# Same split for BENCH_rewrite.json: this ctest regenerates it and holds
# the deterministic fields (power figures, module counts, the rewrite
# advantage, the rewrite's exact work counts) to the committed snapshot,
# the counts with no band; wall-clock fields are gated by
# the rolling perf-trajectory CI job. The bench binary itself exits
# nonzero unless rewriting strictly beats isolated-only somewhere, so
# the acceptance inequality is enforced on every run.
add_test(NAME bench_rewrite_structural
         COMMAND sh -c "mkdir -p ${CMAKE_BINARY_DIR}/bench_json && \
OPISO_BENCH_JSON_DIR=${CMAKE_BINARY_DIR}/bench_json $<TARGET_FILE:bench_rewrite> && \
$<TARGET_FILE:opiso_cli> report diff \
${CMAKE_SOURCE_DIR}/ci/bench_baseline/BENCH_rewrite.baseline.json \
${CMAKE_BINARY_DIR}/bench_json/BENCH_rewrite.json \
--tolerances ${CMAKE_SOURCE_DIR}/ci/bench_baseline/rewrite_structural_tolerances.json --subset")
set_tests_properties(bench_rewrite_structural PROPERTIES TIMEOUT 600 LABELS bench-smoke)
