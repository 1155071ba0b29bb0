# RunBenchSmoke.cmake — smoke driver for the figure benchmarks.
#
# Runs TOOL with TOOL_ARGS ("|"-separated, as in RunLintGolden.cmake) and
# requires exit code 0 and exactly EXPECTED_RECORDS lines of stdout that
# start a JSON record ({"bench" ...).

foreach(var TOOL EXPECTED_RECORDS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "RunBenchSmoke.cmake requires -D${var}=...")
  endif()
endforeach()

set(tool_args "")
if(DEFINED TOOL_ARGS)
  string(REPLACE "|" ";" tool_args "${TOOL_ARGS}")
endif()

execute_process(
  COMMAND ${TOOL} ${tool_args}
  OUTPUT_VARIABLE run_output
  ERROR_VARIABLE run_error
  RESULT_VARIABLE run_result)

if(NOT run_result EQUAL 0)
  message(FATAL_ERROR "${TOOL} exited ${run_result} (expected 0)\n"
                      "--- stderr:\n${run_error}")
endif()

string(REGEX MATCHALL "(^|\n){\"bench\"" records "${run_output}")
list(LENGTH records record_count)
if(NOT record_count EQUAL ${EXPECTED_RECORDS})
  message(FATAL_ERROR "${TOOL} printed ${record_count} JSON records "
                      "(expected ${EXPECTED_RECORDS})\n"
                      "--- stdout:\n${run_output}")
endif()
