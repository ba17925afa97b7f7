# `ldrctl` must refuse input it would otherwise run as nonsense: each case
# below has to exit 2 and print the usage text. The `route` cases cover bad
# values, unknown flags and flags the chosen scheme ignores; llpd, dot and
# corpus must refuse arguments they do not take. A control run with valid
# options on the same topology has to exit 0, so a refusal cannot come from
# the topology file itself.
#
#   cmake -DLDRCTL=<path to ldrctl> -DWORK_DIR=<dir> -P ldrctl_route_rejects.cmake
cmake_minimum_required(VERSION 3.16)

set(topo "${WORK_DIR}/ldrctl_route_rejects_topology.txt")
file(WRITE "${topo}"
  "topology tri\n"
  "node A 50 0\nnode B 51 1\nnode C 50 2\n"
  "link A B 10\nlink B C 10\nlink A C 10\n")

execute_process(
  COMMAND "${LDRCTL}" route "${topo}" --scheme ldr --load 0.5 --headroom 0.1
          --locality 0.5 --seed 2 --classes 10,1
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "control run with valid options exited ${rc}")
endif()

# Runs ldrctl with the remaining arguments; fails unless it exits 2 with the
# usage text on stderr.
function(expect_usage label)
  execute_process(
    COMMAND "${LDRCTL}" ${ARGN}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "ldrctl ${label}: exit ${rc}, expected 2")
  endif()
  if(NOT err MATCHES "usage: ldrctl")
    message(FATAL_ERROR "ldrctl ${label}: no usage text on stderr")
  endif()
endfunction()

# One `route` case per entry; '|' separates the arguments of a case.
set(cases
  "--load|-1"              # negative demand
  "--load|0"
  "--load|abc"             # not a number
  "--load|1e999"           # overflows to infinity
  "--load|nan"
  "--load|0.5x"            # trailing garbage
  "--headroom|1.5"         # capacity would go negative
  "--headroom|1"
  "--headroom|-0.1"
  "--locality|-1"
  "--classes|10,0"         # weights must be positive
  "--classes|10,-1"
  "--classes|,"
  "--seed|-3"
  "--scheme|nope"
  "--bogus|1"              # unknown flag
  "--load"                 # flag without a value
  "--load|0.5|--seed"
  "--scheme|sp|--headroom|0.1"         # headroom is read by b4 and ldr only
  "--scheme|minmax|--headroom|0.1"
  "--scheme|minmaxk10|--headroom|0.1"
  "--scheme|sp|--classes|10,1"         # class weights are read by ldr only
  "--scheme|b4|--classes|10,1"
  "--scheme|minmax|--classes|10,1"
  "--scheme|minmaxk10|--classes|10,1")
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" args "${case}")
  expect_usage("route ${case}" route "${topo}" ${args})
endforeach()

expect_usage("llpd with an extra flag" llpd "${topo}" --bogus 1)
expect_usage("dot with an extra argument" dot "${topo}" extra)
expect_usage("corpus with an extra argument" corpus extra)
