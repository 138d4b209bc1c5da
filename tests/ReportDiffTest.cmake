# One bench/report_diff.py rule on a fixture pair: the diff must exit
# with EXIT and print a line matching REGEX.
#
# Run via: cmake -DPYTHON=... -DDIFF=... -DBASE=... -DCUR=... -DEXIT=...
#               -DREGEX=... -P ReportDiffTest.cmake

execute_process(COMMAND ${PYTHON} ${DIFF} ${BASE} ${CUR}
                RESULT_VARIABLE RC
                OUTPUT_VARIABLE OUT
                ERROR_VARIABLE ERR)
message(STATUS "${OUT}${ERR}")
if(NOT RC EQUAL EXIT)
  message(FATAL_ERROR "expected exit ${EXIT}, got '${RC}'")
endif()
if(NOT OUT MATCHES "${REGEX}")
  message(FATAL_ERROR "expected output matching '${REGEX}'")
endif()
