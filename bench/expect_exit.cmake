# Run a bench binary and check how it exits, for ctest:
#
#   cmake -DBENCH=<binary> -DARGS="<arg> <arg> ..." -DEXPECTED_CODE=<n>
#         [-DEXPECTED_STDERR=<regex>] [-DEXPECTED_STDOUT=<regex>]
#         [-DUNEXPECTED_STDOUT=<regex>] -P expect_exit.cmake
#
# ARGS is split at spaces.
# Fails unless the exit code equals EXPECTED_CODE exactly (a crash or an
# abort does not count as a nonzero exit), each EXPECTED_ regex matches
# and UNEXPECTED_STDOUT does not.

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BENCH} ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 60)
if(NOT code STREQUAL EXPECTED_CODE)
    message(FATAL_ERROR "expected exit code ${EXPECTED_CODE}, got '${code}'\n"
                        "stdout:\n${out}\nstderr:\n${err}")
endif()
if(DEFINED EXPECTED_STDERR AND NOT err MATCHES "${EXPECTED_STDERR}")
    message(FATAL_ERROR "stderr does not match '${EXPECTED_STDERR}':\n${err}")
endif()
if(DEFINED EXPECTED_STDOUT AND NOT out MATCHES "${EXPECTED_STDOUT}")
    message(FATAL_ERROR "stdout does not match '${EXPECTED_STDOUT}':\n${out}")
endif()
if(DEFINED UNEXPECTED_STDOUT AND out MATCHES "${UNEXPECTED_STDOUT}")
    message(FATAL_ERROR "stdout matches '${UNEXPECTED_STDOUT}':\n${out}")
endif()
