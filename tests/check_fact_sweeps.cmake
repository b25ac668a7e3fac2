# Fails when a C++ file under src/, tools/ or bench/ sweeps an Instance as
# Facts (`AllFacts(`, `ForEachFact`, `ForEachFactOf`) outside the
# accessors themselves (relational/instance.*). Everything else reads rows
# (RowsOf, ForEachRow, IsSubsetOf, Minus, SelectRelations); the one caller
# left is the end-to-end benchmark (benchmark/), which this check does not
# scan.
#
#   cmake -P check_fact_sweeps.cmake
cmake_minimum_required(VERSION 3.16)
get_filename_component(root "${CMAKE_CURRENT_LIST_DIR}/.." ABSOLUTE)
set(allowed
    src/relational/instance.h
    src/relational/instance.cc)
file(GLOB_RECURSE files RELATIVE "${root}"
     "${root}/src/*.h" "${root}/src/*.cc"
     "${root}/tools/*.h" "${root}/tools/*.cc"
     "${root}/bench/*.h" "${root}/bench/*.cc")
set(found 0)
foreach(file IN LISTS files)
  if(file IN_LIST allowed)
    continue()
  endif()
  file(STRINGS "${root}/${file}" hits REGEX "AllFacts\\(|ForEachFact")
  foreach(hit IN LISTS hits)
    message("${file}: ${hit}")
    math(EXPR found "${found} + 1")
  endforeach()
endforeach()
if(found GREATER 0)
  message(FATAL_ERROR "${found} Fact sweep(s) outside relational/instance.*")
endif()
