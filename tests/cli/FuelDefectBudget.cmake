# Fuel does not bound work: fuel counts given clauses, and one
# given-clause step is unbounded. Line 207 of the generated Table 2
# (vars=20) corpus below shows it: under --fuel=3000 it takes ~3.7 s
# and 4,354,194 forward-subsumption deletions. This test
# pins its search under a small budget, so a change to how the prover
# spends or charges fuel on it shows up here:
#   - at --fuel=200 it must end unknown with fuel 201 spent and a
#     pinned clause count (1963 stored clauses: ~10 per fuel unit).
# A hang fails through the test's TIMEOUT; wall clock is not gated.
#
#   cmake -DSLP=<slp> -DSLPGEN=<slpgen> -DWORK=<scratch dir> -P <this file>

foreach(Var SLP SLPGEN WORK)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "missing -D${Var}=")
  endif()
endforeach()
file(MAKE_DIRECTORY ${WORK})

execute_process(
  COMMAND ${SLPGEN} --dist=2 --vars=20 --pnext=0.7 --seed=2 --count=300
  OUTPUT_VARIABLE Corpus RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "slpgen failed (${Rc})")
endif()
string(REGEX MATCHALL "[^\n]+" Lines "${Corpus}")
list(GET Lines 206 Query)
file(WRITE ${WORK}/line207.slp "${Query}\n")

execute_process(
  COMMAND ${SLP} --no-presolve --jobs=1 --fuel=200 --stats
          ${WORK}/line207.slp
  OUTPUT_VARIABLE Text RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "slp failed (${Rc}):\n${Text}")
endif()
if(NOT Text MATCHES "\n    unknown\n")
  message(FATAL_ERROR "expected verdict unknown at fuel 200:\n${Text}")
endif()
if(NOT Text MATCHES "clauses=1963 fuel=201\n")
  message(FATAL_ERROR "expected 'clauses=1963 fuel=201' at fuel 200:\n${Text}")
endif()
string(REGEX MATCH "stats: [^\n]*" Stats "${Text}")
string(REGEX MATCH "subsumption: [^\n]*" Subsumption "${Text}")
message(STATUS "line 207 at fuel 200: ${Stats}; ${Subsumption}")
