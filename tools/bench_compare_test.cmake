# Exit-code contract of bench_compare, checked on the JSON fixtures in
# testdata/bench_compare/:
#
#   cmake -DBENCH_COMPARE=<path to bench_compare> -DFIXTURES=<fixture dir> \
#         -P bench_compare_test.cmake
#
# Each case compares baseline.json against one current report. clean.json
# doubles the iteration count (per-iteration counters are unchanged) and
# adds a new benchmark; neither is a failure.
set(cases
  "clean.json=0"      # nothing regressed
  "regressed.json=1"  # master_entries +20% beyond the 15% threshold
  "missing.json=1"    # BM_B/1 is absent from the current report
  "debug.json=2")     # debug-built reports are refused
set(failures 0)
foreach(case IN LISTS cases)
  string(REPLACE "=" ";" parts "${case}")
  list(GET parts 0 current)
  list(GET parts 1 expected)
  execute_process(
    COMMAND "${BENCH_COMPARE}" "${FIXTURES}/baseline.json"
            "${FIXTURES}/${current}"
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code STREQUAL expected)
    message(SEND_ERROR "${current}: exit ${code}, expected ${expected}\n"
                       "${out}${err}")
    math(EXPR failures "${failures} + 1")
  else()
    message(STATUS "${current}: exit ${code} as expected")
  endif()
endforeach()
if(failures GREATER 0)
  message(FATAL_ERROR "${failures} bench_compare case(s) failed")
endif()
