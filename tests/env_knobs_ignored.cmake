# The library reads one environment variable, LDR_THREADS, and it sets only a
# worker count. Failpoints are armed in code and the bench scale lives in the
# benches, so neither LDR_FAILPOINTS nor LDR_BENCH_SCALE may change what the
# library computes. This runs scenario_walkthrough (a deterministic
# failure/recovery/surge timeline) plain and again with both variables set,
# and fails unless the two stdouts are byte-identical.
#
#   cmake -DWALKTHROUGH=<path to scenario_walkthrough> -P env_knobs_ignored.cmake
cmake_minimum_required(VERSION 3.16)

execute_process(
  COMMAND "${WALKTHROUGH}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE plain ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "scenario_walkthrough exited ${rc}")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env LDR_FAILPOINTS=lp.iter_limit
          LDR_BENCH_SCALE=full "${WALKTHROUGH}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE knobs ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "scenario_walkthrough exited ${rc} with LDR_FAILPOINTS/LDR_BENCH_SCALE set")
endif()

if(plain STREQUAL "")
  message(FATAL_ERROR "scenario_walkthrough printed nothing")
endif()
if(NOT plain STREQUAL knobs)
  message(FATAL_ERROR
    "scenario_walkthrough stdout changed under "
    "LDR_FAILPOINTS=lp.iter_limit LDR_BENCH_SCALE=full:\n"
    "--- plain ---\n${plain}\n--- with knobs ---\n${knobs}")
endif()
