#===- bench/check_golden.cmake - byte-compare a bench's stdout -------------===#
#
# Runs BIN (a bench binary, under the caller's environment) and fails unless
# it exits 0 and its stdout equals the file GOLDEN byte for byte. stderr
# (timing, trap notes) passes through. On a mismatch the stdout is left in
# ACTUAL and `diff -u GOLDEN ACTUAL` is printed.
#
#   cmake -DBIN=... -DGOLDEN=... -DACTUAL=... -P check_golden.cmake
#
#===----------------------------------------------------------------------===#

execute_process(COMMAND "${BIN}" OUTPUT_VARIABLE Out RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${Rc}")
endif()
file(READ "${GOLDEN}" Want)
if(NOT Out STREQUAL Want)
  file(WRITE "${ACTUAL}" "${Out}")
  execute_process(COMMAND diff -u "${GOLDEN}" "${ACTUAL}")
  message(FATAL_ERROR "stdout of ${BIN} differs from ${GOLDEN}")
endif()
