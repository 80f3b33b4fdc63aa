# Runs one dwarf app on a Table 3 argument list at tiny footprints and checks
# that it exits 0 and that its first output line is the expected echo:
#   cmake -DAPP=<binary> -DARGS="<arguments>" -DECHO="<echo line>" \
#         -P app_table3_smoke.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${APP}" --size tiny --samples 1 --min-loop-seconds 0 -- ${args}
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${APP} -- ${ARGS} exited ${status}:\n${out}${err}")
endif()
string(FIND "${out}" "\n" eol)
string(SUBSTRING "${out}" 0 ${eol} first)
if(NOT "${first}" STREQUAL "${ECHO}")
  message(FATAL_ERROR "echo line \"${first}\", expected \"${ECHO}\"")
endif()
