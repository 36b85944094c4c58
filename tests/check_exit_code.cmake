# Runs one tool invocation and fails unless it exits with EXPECT_RC and
# its stderr contains EXPECT_STDERR. Invoked by ctest entries with:
#   -DBIN=<executable> -DARGS=<space-separated arguments>
#   -DEXPECT_RC=<exit code> -DEXPECT_STDERR=<text>
# An invocation still running after 10 s fails the check: a daemon that
# accepted a bad flag would otherwise serve until killed.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${BIN}" ${args}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 10)
if(NOT rc STREQUAL "${EXPECT_RC}")
  message(FATAL_ERROR "${BIN} ${ARGS}: exit '${rc}', expected ${EXPECT_RC}\n"
                      "stdout: ${out}\nstderr: ${err}")
endif()
string(FIND "${err}" "${EXPECT_STDERR}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${BIN} ${ARGS}: stderr lacks '${EXPECT_STDERR}':\n"
                      "${err}")
endif()
