# slp-batch's result cache is single-flight: concurrent copies of one
# canonical key wait for its one proof. On a corpus proved twice over,
# the cache accounting must therefore be the same at every --jobs, and
# every miss must have become exactly one entry.
#
#   cmake -DSLP_BATCH=<slp-batch> -DCORPUS=<file.slp> -DWORK=<scratch dir>
#         -P <this file>

foreach(Var SLP_BATCH CORPUS WORK)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "missing -D${Var}=")
  endif()
endforeach()
file(MAKE_DIRECTORY ${WORK})

file(READ ${CORPUS} Corpus)
file(WRITE ${WORK}/doubled.slp "${Corpus}\n${Corpus}")

# Prints slp-batch's `cache:` stats line for --jobs=JOBS into OUT.
function(cache_line Jobs Out)
  execute_process(
    COMMAND ${SLP_BATCH} --no-presolve --stats --jobs=${Jobs}
            ${WORK}/doubled.slp
    OUTPUT_QUIET ERROR_VARIABLE Stats RESULT_VARIABLE Rc)
  if(NOT Rc EQUAL 0)
    message(FATAL_ERROR "slp-batch --jobs=${Jobs} failed (${Rc}):\n${Stats}")
  endif()
  string(REGEX MATCH "cache: [^\n]*" Line "${Stats}")
  if(NOT Line)
    message(FATAL_ERROR "no cache: line at --jobs=${Jobs}:\n${Stats}")
  endif()
  set(${Out} "${Line}" PARENT_SCOPE)
endfunction()

cache_line(1 Reference)
if(NOT Reference MATCHES "\\(([0-9]+) hits, ([0-9]+) misses, ([0-9]+) entries")
  message(FATAL_ERROR "unexpected cache: line: ${Reference}")
endif()
if(NOT CMAKE_MATCH_2 EQUAL CMAKE_MATCH_3)
  message(FATAL_ERROR "misses differ from entries: ${Reference}")
endif()
if(NOT CMAKE_MATCH_1 GREATER_EQUAL CMAKE_MATCH_2)
  message(FATAL_ERROR "the repeated half was not answered from the cache: "
          "${Reference}")
endif()
foreach(Jobs 2 4)
  cache_line(${Jobs} Line)
  if(NOT Line STREQUAL Reference)
    message(FATAL_ERROR "cache accounting depends on --jobs:\n"
            "  --jobs=1:       ${Reference}\n"
            "  --jobs=${Jobs}:       ${Line}")
  endif()
endforeach()
message(STATUS "--jobs=1, 2, 4: ${Reference}")
