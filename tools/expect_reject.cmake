# Runs a command that must fail closed, for ctest entries registered with
# baffle_reject_test (top-level CMakeLists.txt):
#
#   cmake -DEXPECT_CODE=2 "-DEXPECT_OUTPUT=invalid --q=abc: " \
#         [-DRUN_DIR=<dir>] -P expect_reject.cmake -- <command> [args...]
#
# Passes only when the command exits with EXPECT_CODE and its merged
# stdout and stderr match the regex EXPECT_OUTPUT. ctest's
# PASS_REGULAR_EXPRESSION ignores the exit status and WILL_FAIL passes
# an abort, so neither can tell a clean rejection from a crash or a run
# that went on and exited 0. With RUN_DIR the command runs in that
# directory, emptied first, and must leave no file in it.

set(command)
set(after_separator FALSE)
math(EXPR last_arg "${CMAKE_ARGC} - 1")
foreach(i RANGE 1 ${last_arg})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
if(NOT command OR NOT DEFINED EXPECT_CODE OR NOT DEFINED EXPECT_OUTPUT)
  message(FATAL_ERROR "usage: cmake -DEXPECT_CODE=N -DEXPECT_OUTPUT=REGEX "
                      "[-DRUN_DIR=DIR] -P expect_reject.cmake -- "
                      "COMMAND [ARGS...]")
endif()

set(run_in)
if(DEFINED RUN_DIR)
  file(REMOVE_RECURSE "${RUN_DIR}")
  file(MAKE_DIRECTORY "${RUN_DIR}")
  set(run_in WORKING_DIRECTORY "${RUN_DIR}")
endif()

execute_process(COMMAND ${command} ${run_in}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE output
                ERROR_VARIABLE output)
message("${output}")

set(failures)
if(NOT code STREQUAL EXPECT_CODE)
  list(APPEND failures "exit status '${code}', expected ${EXPECT_CODE}")
endif()
if(NOT output MATCHES "${EXPECT_OUTPUT}")
  list(APPEND failures "no output matches '${EXPECT_OUTPUT}'")
endif()
if(DEFINED RUN_DIR)
  file(GLOB left_behind "${RUN_DIR}/*")
  if(left_behind)
    list(APPEND failures "left files in its directory: ${left_behind}")
  endif()
endif()
if(failures)
  list(JOIN failures "; " why)
  message(FATAL_ERROR "expect_reject: ${why}")
endif()
