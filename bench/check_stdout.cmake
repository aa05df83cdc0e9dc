# Runs one bench binary and checks its exit status and, when EXPECTED is
# given, that its stdout equals that file byte for byte.
#
#   cmake -DBIN=<exe> "-DARGS=<args>" [-DEXIT=<status>]
#         [-DEXPECTED=<file> -DACTUAL=<file>] -P check_stdout.cmake
#
# On a stdout mismatch the output is kept in ACTUAL for diffing.
cmake_minimum_required(VERSION 3.16)

if(NOT DEFINED EXIT)
  set(EXIT 0)
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                OUTPUT_VARIABLE out RESULT_VARIABLE status)
if(NOT "${status}" STREQUAL "${EXIT}")
  message(FATAL_ERROR "${BIN} ${ARGS}: exit status ${status}, want ${EXIT}")
endif()
if(DEFINED EXPECTED)
  file(READ "${EXPECTED}" want)
  if(NOT "${out}" STREQUAL "${want}")
    file(WRITE "${ACTUAL}" "${out}")
    message(FATAL_ERROR
      "${BIN} ${ARGS}: stdout differs from the pinned tables\n"
      "  diff ${EXPECTED} ${ACTUAL}")
  endif()
endif()
