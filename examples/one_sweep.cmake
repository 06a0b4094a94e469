# Passes only when a dp.metrics.v1 document records exactly one engine
# sweep (one `<prefix>.sweep` timer sample in all), over every collapsed
# fault of the circuit as `dpcli info` counts them.
#
#   cmake -DMETRICS=run.json -DDPCLI=<dpcli> -DCIRCUIT=c95 -P one_sweep.cmake
file(READ ${METRICS} doc)
string(JSON timers GET "${doc}" metrics timers)
string(JSON last LENGTH "${timers}")
math(EXPR last "${last} - 1")
set(sweeps 0)
foreach(i RANGE ${last})
  string(JSON name MEMBER "${timers}" ${i})
  if(name MATCHES "^(.*)\\.sweep$")
    set(prefix ${CMAKE_MATCH_1})
    string(JSON count GET "${timers}" ${name} count)
    math(EXPR sweeps "${sweeps} + ${count}")
  endif()
endforeach()
string(JSON analyzed GET "${doc}" metrics counters ${prefix}.faults_analyzed)
execute_process(COMMAND ${DPCLI} info ${CIRCUIT} OUTPUT_VARIABLE info)
string(REGEX MATCH "collapsed: ([0-9]+)" collapsed "${info}")
if(NOT sweeps EQUAL 1 OR NOT analyzed EQUAL CMAKE_MATCH_1)
  message(FATAL_ERROR "${sweeps} sweeps over ${analyzed} faults; expected "
                      "1 over ${CMAKE_MATCH_1}")
endif()
