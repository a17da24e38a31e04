# Checks that a CLI invocation is rejected, not crashed: it must exit
# with status 2 and print a stderr message matching EXPECT_STDERR.
# (WILL_FAIL accepts any nonzero exit, so an abort would pass too.)
#
# Usage:
#   cmake -DEXPECT_STDERR=<regex> -P expect_rejection.cmake -- <cmd> [args...]

set(cmd "")
set(in_cmd FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(in_cmd)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(in_cmd TRUE)
  endif()
endforeach()
if(NOT cmd OR NOT DEFINED EXPECT_STDERR)
  message(FATAL_ERROR "usage: cmake -DEXPECT_STDERR=<regex> -P "
                      "expect_rejection.cmake -- <cmd> [args...]")
endif()

execute_process(COMMAND ${cmd}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "rejection check: want exit status 2, got '${status}'"
                      "\nstderr: ${err}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "rejection check: stderr does not match "
                      "'${EXPECT_STDERR}'\nstderr: ${err}")
endif()
message(STATUS "rejected as expected (exit 2): ${err}")
