# Run one built command-line tool and check its exit code and output
# (the ctest cases in this directory that drive a tool binary):
#
#   cmake -DTOOL=<binary> -DARGS=<a|b|...> -DEXIT=<code> [-DEXPECT=<s1|s2|...>]
#         -P tool_check.cmake
#
# ARGS and EXPECT are '|'-separated.  The tool must exit with EXIT, and
# every EXPECT string must appear in what it printed (stdout + stderr).
string(REPLACE "|" ";" args "${ARGS}")
string(REPLACE "|" ";" expect "${EXPECT}")
execute_process(COMMAND "${TOOL}" ${args}
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code STREQUAL EXIT)
  message(FATAL_ERROR "${TOOL} ${args}: exit ${code}, want ${EXIT}\n${out}${err}")
endif()
foreach(want IN LISTS expect)
  string(FIND "${out}${err}" "${want}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${TOOL} ${args}: output lacks '${want}'\n${out}${err}")
  endif()
endforeach()
