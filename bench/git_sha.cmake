# Writes OUT, a header defining HPCGRAPH_GIT_SHA as the short sha of the
# checkout at SRC ("unknown" outside git).  The file is rewritten only when
# the sha changes, so a build at an unchanged commit recompiles nothing.
#   cmake -DSRC=<source dir> -DOUT=<header> -P git_sha.cmake
execute_process(
  COMMAND git rev-parse --short HEAD
  WORKING_DIRECTORY "${SRC}"
  OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(NOT sha)
  set(sha "unknown")
endif()
set(body "#pragma once\n#define HPCGRAPH_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS "${OUT}")
  file(READ "${OUT}" old)
endif()
if(NOT old STREQUAL body)
  file(WRITE "${OUT}" "${body}")
endif()
