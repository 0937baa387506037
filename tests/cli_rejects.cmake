# Runs drrg_cli with one malformed numeric flag and passes when the CLI
# exits 2 with a message that names the flag and the value:
#
#   cmake -DCLI=build/drrg_cli -DFLAG=--n -DVALUE=1024x -P tests/cli_rejects.cmake
#
# --trials 1 and a small --n come first, so a CLI that accepted the bad
# value would still run one small trial on one thread.
execute_process(COMMAND "${CLI}" --trials 1 --n 64 "${FLAG}" "${VALUE}"
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "${FLAG} ${VALUE}: exit ${code}, want 2\n${out}${err}")
endif()
string(FIND "${err}" "invalid value for ${FLAG}: ${VALUE}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${FLAG} ${VALUE}: no message naming the flag\n${err}")
endif()
