# Runs a report binary and checks its exit status:
#   cmake -DAPP=<binary> "-DARGS=<arguments>" -DSTATUS=<n> [-DEXPECT=<text>]
#         [-DDAT_DIR=<dir> -DDAT_COUNT=<n>] -P report_cli.cmake
# EXPECT must appear in standard error (a rejected command line names its
# token); DAT_DIR, emptied first, must then hold exactly DAT_COUNT .dat
# files.
if(DEFINED DAT_DIR)
  file(REMOVE_RECURSE "${DAT_DIR}")
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${APP}" ${args}
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL STATUS)
  message(FATAL_ERROR
    "${APP} ${ARGS} exited ${status}, expected ${STATUS}:\n${out}${err}")
endif()
if(DEFINED EXPECT)
  string(FIND "${err}" "${EXPECT}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "standard error does not name \"${EXPECT}\":\n${err}")
  endif()
endif()
if(DEFINED DAT_DIR)
  file(GLOB dats "${DAT_DIR}/*.dat")
  list(LENGTH dats count)
  if(NOT count EQUAL DAT_COUNT)
    message(FATAL_ERROR
      "${DAT_DIR} holds ${count} .dat files, expected ${DAT_COUNT}")
  endif()
endif()
