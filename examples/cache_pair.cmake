# One half of a `dpcli sa|bf|atpg --cache-dir` cold/warm pair.
#
#   cmake -DCMD="dpcli|atpg|c95" -DDIR=<cache dir> -DMODE=cold|warm \
#         -P cache_pair.cmake
#
# cold: empties DIR; CMD must exit 0, miss the cache and sweep (a nonzero
#       dp.faults_analyzed counter in its metrics). Its result block is
#       kept in DIR.result.
# warm: CMD must exit 0, sweep nothing (no dp.sweep timer and no
#       dp.faults_analyzed counter) and build no observability layer (no
#       dp.observe.roots counter), and print the cold result block byte
#       for byte; atpg must also print "test-set forest hit".
# The result block of `sa` and `bf` is their report before the engine's
# stats block; that of `atpg` is its vector block ("# C: ..." onwards).
string(REPLACE "|" ";" command "${CMD}")
list(GET command 1 subcommand)
if(MODE STREQUAL "cold")
  file(REMOVE_RECURSE "${DIR}")
endif()
execute_process(
    COMMAND ${command} --cache-dir ${DIR} --metrics-json ${DIR}.${MODE}.json
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "exit ${rc}; stderr:\n${err}")
endif()
string(REGEX REPLACE "\\[metrics\\] wrote [^\n]*\n" "" out "${out}")
if(subcommand STREQUAL "atpg")
  # The vector block ends the output, save for the metrics-file notice.
  string(FIND "${out}" "\n# " at)
  string(SUBSTRING "${out}" ${at} -1 result)
  string(FIND "${out}" "test-set forest hit" hit)
  set(hit_ok TRUE)
  if(MODE STREQUAL "warm" AND hit EQUAL -1)
    set(hit_ok FALSE)
  elseif(MODE STREQUAL "cold" AND NOT hit EQUAL -1)
    set(hit_ok FALSE)
  endif()
else()
  string(FIND "${out}" "\nparallel DP sweep" at)
  string(SUBSTRING "${out}" 0 ${at} result)
  set(hit_ok TRUE)
endif()
# A run swept when it exported any engine stats (a dp.sweep timer or a
# dp.faults_analyzed counter) or built an observability layer.
file(READ ${DIR}.${MODE}.json doc)
string(JSON analyzed ERROR_VARIABLE no_count
       GET "${doc}" metrics counters dp.faults_analyzed)
string(JSON sweep ERROR_VARIABLE no_sweep
       GET "${doc}" metrics timers dp.sweep)
string(JSON roots ERROR_VARIABLE no_layer
       GET "${doc}" metrics counters dp.observe.roots)
set(swept FALSE)
if(NOT no_count OR NOT no_sweep OR NOT no_layer)
  set(swept TRUE)
endif()
if(MODE STREQUAL "cold")
  if(NOT swept OR NOT hit_ok OR at EQUAL -1)
    message(FATAL_ERROR "cold run hit the cache or swept nothing:\n${out}")
  endif()
  file(WRITE ${DIR}.result "${result}")
else()
  file(READ ${DIR}.result cold)
  if(swept OR NOT hit_ok OR NOT result STREQUAL cold)
    message(FATAL_ERROR "warm run swept, missed the cache or changed the "
                        "result:\n${out}\ncold result:\n${cold}")
  endif()
endif()
