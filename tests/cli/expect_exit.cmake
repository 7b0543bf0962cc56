# Runs EXE with ARGS (one space-separated string) and fails unless it exits
# with CODE and its stderr contains EXPECT.
#
#   cmake -DEXE=gdisim_run "-DARGS=--threads -1" -DCODE=2 \
#         "-DEXPECT=--threads: bad value '-1'" -P expect_exit.cmake
separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${arg_list}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL "${CODE}")
  message(FATAL_ERROR "'${ARGS}': exit ${code}, expected ${CODE}\nstderr: ${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "'${ARGS}': stderr lacks \"${EXPECT}\"\nstderr: ${err}")
endif()
