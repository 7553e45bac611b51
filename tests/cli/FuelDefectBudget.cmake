# The former fuel-defect reproducer: line 207 of the generated Table 2
# (vars=20) corpus below. Fuel counts given clauses, and one
# given-clause step is unbounded work; this query showed it when every
# well-formedness consequence carried the residue of all of Σ's rewrite
# edges (unknown after ~30 s under --fuel=12000, with
# clauses=97628 fuel=12001). With each consequence scoped to the edges
# of the terms it reads, it is valid after 16 given clauses. This test
# pins that it stays decided within --fuel=200, with its search pinned:
#   - valid, with `clauses=42 fuel=16`.
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
if(NOT Text MATCHES "\n    valid\n")
  message(FATAL_ERROR "expected verdict valid at fuel 200:\n${Text}")
endif()
if(NOT Text MATCHES "clauses=42 fuel=16\n")
  message(FATAL_ERROR "expected 'clauses=42 fuel=16' at fuel 200:\n${Text}")
endif()
string(REGEX MATCH "stats: [^\n]*" Stats "${Text}")
string(REGEX MATCH "subsumption: [^\n]*" Subsumption "${Text}")
message(STATUS "line 207 at fuel 200: ${Stats}; ${Subsumption}")
