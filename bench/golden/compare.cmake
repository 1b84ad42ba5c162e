# Golden-output check for one deterministic simulator bench: runs BIN and
# compares its stdout byte for byte with EXPECTED. On a mismatch the actual
# output is written to ACTUAL and a unified diff is printed.
#
#   cmake -DBIN=<bench> -DEXPECTED=<file> -DACTUAL=<file> -P compare.cmake
#
# To accept a deliberate change, regenerate the expectation from the new
# binary: ./build/bench/<name> > bench/golden/<name>.txt
execute_process(COMMAND "${BIN}" OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with status ${rc}")
endif()
file(READ "${EXPECTED}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${ACTUAL}" "${actual}")
  execute_process(COMMAND diff -u "${EXPECTED}" "${ACTUAL}")
  message(FATAL_ERROR "stdout differs from ${EXPECTED} (actual in ${ACTUAL})")
endif()
