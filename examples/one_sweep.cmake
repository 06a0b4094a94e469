# Passes only when a dp.metrics.v1 document records exactly EXPECT
# samples (default 1) of the timer `<prefix>.TIMER` (default `sweep`: one
# engine sweep) in all. Given CIRCUIT, the sweeps must also cover every
# collapsed fault of the circuit as `dpcli info` counts them.
#
#   cmake -DMETRICS=run.json -DDPCLI=<dpcli> -DCIRCUIT=c95 -P one_sweep.cmake
#   cmake -DMETRICS=run.json -DTIMER=observe -DEXPECT=1 -P one_sweep.cmake
if(NOT DEFINED TIMER)
  set(TIMER sweep)
endif()
if(NOT DEFINED EXPECT)
  set(EXPECT 1)
endif()
file(READ ${METRICS} doc)
string(JSON timers GET "${doc}" metrics timers)
string(JSON last LENGTH "${timers}")
math(EXPR last "${last} - 1")
set(samples 0)
foreach(i RANGE ${last})
  string(JSON name MEMBER "${timers}" ${i})
  if(name MATCHES "^(.*)\\.${TIMER}$")
    set(prefix ${CMAKE_MATCH_1})
    string(JSON count GET "${timers}" ${name} count)
    math(EXPR samples "${samples} + ${count}")
  endif()
endforeach()
if(NOT samples EQUAL EXPECT)
  message(FATAL_ERROR "${samples} ${TIMER} samples; expected ${EXPECT}")
endif()
if(DEFINED CIRCUIT)
  string(JSON analyzed GET "${doc}" metrics counters ${prefix}.faults_analyzed)
  execute_process(COMMAND ${DPCLI} info ${CIRCUIT} OUTPUT_VARIABLE info)
  string(REGEX MATCH "collapsed: ([0-9]+)" collapsed "${info}")
  if(NOT analyzed EQUAL CMAKE_MATCH_1)
    message(FATAL_ERROR "${samples} sweeps over ${analyzed} faults; expected "
                        "${EXPECT} over ${CMAKE_MATCH_1}")
  endif()
endif()
