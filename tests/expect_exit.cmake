# Runs a command and fails unless it exits with the code EXPECT. ctest's
# WILL_FAIL only tells zero from non-zero, while the CLIs' exit codes
# (1 divergence, 2 usage or malformed input, ...) are part of their
# contract.
#
#   cmake -DEXPECT=<code> -P expect_exit.cmake <command> [args...]
# The command starts after the script path, which follows -P.
math(EXPR last "${CMAKE_ARGC} - 1")
set(first 0)
set(cmd)
foreach(i RANGE 1 ${last})
  if(first GREATER 0 AND i GREATER_EQUAL first)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "-P")
    math(EXPR first "${i} + 2")
  endif()
endforeach()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "exit code ${rc}, expected ${EXPECT}: ${cmd}")
endif()
