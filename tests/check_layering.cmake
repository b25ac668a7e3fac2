# Fails when a C++ file under src/ outside src/<LAYER> includes a <LAYER>/
# header: that layer sits on top of the rest of src/, and nothing below it
# may reach up.
#   * sa: the static analyzer and the planner (src/sa, src/sa/plan) sit on
#     the Datalog, CQ and MPC layers; the stratification the evaluator
#     needs lives in datalog/depgraph.h.
#   * fault: the plan generators, the confluence classifier and the
#     schedule explorer sit on the network runner, which owns the
#     scheduler and the FaultPlan it executes (net/scheduler.h).
#
#   cmake -DLAYER=sa -P check_layering.cmake
cmake_minimum_required(VERSION 3.16)
if(NOT LAYER)
  message(FATAL_ERROR "usage: cmake -DLAYER=<dir under src/> -P check_layering.cmake")
endif()
get_filename_component(root "${CMAKE_CURRENT_LIST_DIR}/.." ABSOLUTE)
if(NOT IS_DIRECTORY "${root}/src/${LAYER}")
  message(FATAL_ERROR "no directory src/${LAYER}")
endif()
file(GLOB_RECURSE files RELATIVE "${root}"
     "${root}/src/*.h" "${root}/src/*.cc")
set(found 0)
foreach(file IN LISTS files)
  if(file MATCHES "^src/${LAYER}/")
    continue()
  endif()
  file(STRINGS "${root}/${file}" hits
       REGEX "#[ \t]*include[ \t]*[\"<]${LAYER}/")
  foreach(hit IN LISTS hits)
    message("${file}: ${hit}")
    math(EXPR found "${found} + 1")
  endforeach()
endforeach()
if(found GREATER 0)
  message(FATAL_ERROR
          "${found} ${LAYER}/ include(s) under src/ outside src/${LAYER}")
endif()
