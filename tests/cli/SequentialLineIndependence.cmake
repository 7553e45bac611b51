# A query's search on slp's sequential path (--jobs=1, --stats,
# --proof, --model, --dot-*) must not depend on the lines before it:
# the second line of a two-line corpus must report exactly the
# statistics it reports when proved alone.
#
#   cmake -DSLP=<slp> -DSLPGEN=<slpgen> -DWORK=<scratch dir> -P <this file>

foreach(Var SLP SLPGEN WORK)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "missing -D${Var}=")
  endif()
endforeach()
file(MAKE_DIRECTORY ${WORK})

execute_process(
  COMMAND ${SLPGEN} --dist=1 --vars=10 --plseg=0.1 --pne=0.2 --seed=1
          --count=2
  OUTPUT_VARIABLE Corpus RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "slpgen failed (${Rc})")
endif()
string(REGEX MATCHALL "[^\n]+" Lines "${Corpus}")
list(LENGTH Lines NumLines)
if(NOT NumLines EQUAL 2)
  message(FATAL_ERROR "expected 2 generated lines, got ${NumLines}")
endif()
list(GET Lines 1 Second)
file(WRITE ${WORK}/two.slp "${Corpus}")
file(WRITE ${WORK}/one.slp "${Second}\n")

# Prints the stats lines of every query in FILE into OUT (a list).
function(query_stats File Out)
  execute_process(
    COMMAND ${SLP} --no-presolve --jobs=1 --stats ${File}
    OUTPUT_VARIABLE Text RESULT_VARIABLE Rc)
  if(NOT Rc EQUAL 0)
    message(FATAL_ERROR "slp failed on ${File} (${Rc}):\n${Text}")
  endif()
  string(REGEX MATCHALL "stats: [^\n]*" Stats "${Text}")
  string(REGEX MATCHALL "subsumption: [^\n]*" Subsumption "${Text}")
  set(${Out} "${Stats}" PARENT_SCOPE)
  set(${Out}_SUB "${Subsumption}" PARENT_SCOPE)
endfunction()

query_stats(${WORK}/two.slp Two)
query_stats(${WORK}/one.slp One)
list(GET Two 1 TwoSecond)
list(GET Two_SUB 1 TwoSecondSub)
if(NOT TwoSecond STREQUAL One OR NOT TwoSecondSub STREQUAL One_SUB)
  message(FATAL_ERROR "line 2 depends on line 1:\n"
          "  after line 1: ${TwoSecond} | ${TwoSecondSub}\n"
          "  alone:        ${One} | ${One_SUB}")
endif()
message(STATUS "line 2 alone and after line 1: ${One}")
