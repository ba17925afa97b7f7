# `ldrctl route` must refuse input it would otherwise route as nonsense:
# each case below has to exit 2 and print the usage text. A control run with
# valid options on the same topology has to exit 0, so a refusal cannot come
# from the topology file itself.
#
#   cmake -DLDRCTL=<path to ldrctl> -DWORK_DIR=<dir> -P ldrctl_route_rejects.cmake
cmake_minimum_required(VERSION 3.16)

set(topo "${WORK_DIR}/ldrctl_route_rejects_topology.txt")
file(WRITE "${topo}"
  "topology tri\n"
  "node A 50 0\nnode B 51 1\nnode C 50 2\n"
  "link A B 10\nlink B C 10\nlink A C 10\n")

execute_process(
  COMMAND "${LDRCTL}" route "${topo}" --load 0.5 --headroom 0.1
          --locality 0.5 --seed 2 --classes 10,1
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "control run with valid options exited ${rc}")
endif()

# One case per entry; '|' separates the arguments of a case.
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
  "--load|0.5|--seed")
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" args "${case}")
  execute_process(
    COMMAND "${LDRCTL}" route "${topo}" ${args}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "ldrctl route ${case}: exit ${rc}, expected 2")
  endif()
  if(NOT err MATCHES "usage: ldrctl")
    message(FATAL_ERROR "ldrctl route ${case}: no usage text on stderr")
  endif()
endforeach()
