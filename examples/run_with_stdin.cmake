# Runs PROGRAM with the file SESSION as its stdin and fails if it exits
# non-zero. Usage:
#   cmake -DPROGRAM=<binary> -DSESSION=<file> -P run_with_stdin.cmake
execute_process(COMMAND "${PROGRAM}"
                INPUT_FILE "${SESSION}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with status ${status}")
endif()
