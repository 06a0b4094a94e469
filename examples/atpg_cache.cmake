# One half of an `atpg --cache-dir` cold/warm pair.
#
#   cmake -DCMD="dpcli|atpg|c95" -DDIR=<cache dir> -DMODE=cold|warm \
#         -P atpg_cache.cmake
#
# cold: empties DIR; CMD must exit 0, miss the cache and sweep. Its vector
#       block ("# C: ..." onwards) is kept in DIR.vectors.
# warm: CMD must exit 0, print "test-set forest hit", sweep nothing (no
#       `<prefix>.sweep` timer in its metrics) and print the cold vectors
#       byte for byte.
string(REPLACE "|" ";" command "${CMD}")
if(MODE STREQUAL "cold")
  file(REMOVE_RECURSE "${DIR}")
endif()
execute_process(
    COMMAND ${command} --cache-dir ${DIR} --metrics-json ${DIR}.${MODE}.json
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "exit ${rc}; stderr:\n${err}")
endif()
# The vector block ends the output, save for the metrics-file notice.
string(REGEX REPLACE "\\[metrics\\] wrote [^\n]*\n" "" out "${out}")
string(FIND "${out}" "\n# " at)
string(SUBSTRING "${out}" ${at} -1 vectors)
file(READ ${DIR}.${MODE}.json doc)
string(REGEX MATCH "\\.sweep\":" swept "${doc}")
string(FIND "${out}" "test-set forest hit" hit)
if(MODE STREQUAL "cold")
  if(NOT swept OR NOT hit EQUAL -1 OR at EQUAL -1)
    message(FATAL_ERROR "cold run hit the cache or swept nothing:\n${out}")
  endif()
  file(WRITE ${DIR}.vectors "${vectors}")
else()
  file(READ ${DIR}.vectors cold)
  if(swept OR hit EQUAL -1 OR NOT vectors STREQUAL cold)
    message(FATAL_ERROR "warm run swept, missed the cache or changed the "
                        "vectors:\n${out}\ncold vectors:\n${cold}")
  endif()
endif()
