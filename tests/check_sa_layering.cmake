# Fails when a C++ file under src/ outside src/sa includes an sa/ header.
# The static analyzer and the planner (src/sa, src/sa/plan) sit on top of
# the Datalog, CQ and MPC layers; nothing below them may reach up. The
# stratification the evaluator needs lives in datalog/depgraph.h.
#
#   cmake -P check_sa_layering.cmake
cmake_minimum_required(VERSION 3.16)
get_filename_component(root "${CMAKE_CURRENT_LIST_DIR}/.." ABSOLUTE)
file(GLOB_RECURSE files RELATIVE "${root}"
     "${root}/src/*.h" "${root}/src/*.cc")
set(found 0)
foreach(file IN LISTS files)
  if(file MATCHES "^src/sa/")
    continue()
  endif()
  file(STRINGS "${root}/${file}" hits REGEX "#[ \t]*include[ \t]*[\"<]sa/")
  foreach(hit IN LISTS hits)
    message("${file}: ${hit}")
    math(EXPR found "${found} + 1")
  endforeach()
endforeach()
if(found GREATER 0)
  message(FATAL_ERROR "${found} sa/ include(s) under src/ outside src/sa")
endif()
