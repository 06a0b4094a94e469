# Runs one command and passes only when it exits with EXPECT_RC and its
# stderr matches EXPECT_REGEX (ctest's PASS_REGULAR_EXPRESSION alone
# ignores the exit code).
#
#   cmake -DCMD="prog|arg1|arg2" -DEXPECT_RC=2 -DEXPECT_REGEX="..." \
#         -P expect_exit.cmake
string(REPLACE "|" ";" command "${CMD}")
execute_process(COMMAND ${command}
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc EQUAL EXPECT_RC)
  message(FATAL_ERROR "exit ${rc}, expected ${EXPECT_RC}; stderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT_REGEX}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_REGEX}':\n${err}")
endif()
