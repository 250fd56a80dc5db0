# Runs hpcgraph_cli on the edge file GRAPH, which must not exist, and
# asserts the named error: exit status 1 and the failed stat( on stderr.
#   cmake -DCLI=<hpcgraph_cli> -DGRAPH=<missing path> -P cli_missing_graph.cmake
if(EXISTS "${GRAPH}")
  message(FATAL_ERROR "${GRAPH} exists; the test needs a missing file")
endif()
execute_process(
  COMMAND "${CLI}" --graph "${GRAPH}" --analytic stats --ranks 2
  RESULT_VARIABLE status
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "expected exit status 1, got '${status}'; stderr:\n${err}")
endif()
if(NOT err MATCHES "stat\\(")
  message(FATAL_ERROR "expected the failed stat( on stderr, got:\n${err}")
endif()
