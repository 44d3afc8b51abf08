# The figure drivers' regression rule: every output equals its committed
# baseline byte for byte. Run as a ctest script (bench/CMakeLists.txt,
# `stf_add_bench_gate`) in one of two modes:
#
#   cmake -DBENCH=<driver> -DSTDOUT=<file> -DFRESH=<files> -P bench_gate.cmake
#       deletes the outputs (FRESH) an earlier run left, so a driver that
#       stops writing one fails the comparison, then runs the driver in the
#       working directory with its stdout in STDOUT; fails when the driver
#       exits non-zero.
#   cmake -DPAIRS=<baseline>=<fresh>;... -P bench_gate.cmake
#       fails unless every fresh file equals its baseline, and prints
#       `diff -u <baseline> <fresh>` for each one that does not.

cmake_minimum_required(VERSION 3.21)

if(DEFINED BENCH)
  file(REMOVE ${FRESH})
  execute_process(COMMAND ${BENCH} OUTPUT_FILE ${STDOUT} RESULT_VARIABLE rc)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "${BENCH} failed (${rc}); its stdout is in ${STDOUT}")
  endif()
  return()
endif()

set(mismatches 0)
foreach(pair IN LISTS PAIRS)
  string(REPLACE "=" ";" files "${pair}")
  list(GET files 0 baseline)
  list(GET files 1 fresh)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${baseline} ${fresh}
                  RESULT_VARIABLE rc)
  if(NOT rc STREQUAL "0")
    math(EXPR mismatches "${mismatches} + 1")
    message("${fresh} differs from ${baseline}:")
    execute_process(COMMAND diff -u ${baseline} ${fresh})
  endif()
endforeach()
if(mismatches GREATER 0)
  message(FATAL_ERROR "${mismatches} output(s) differ from bench/baselines/; "
          "regenerate a baseline only for a change meant to move it")
endif()
