# The Table 1 (vars=20) instance that saturation cannot finish: line 69
# of the generated corpus below. Under a small fuel budget it must end
# unknown after exactly the given-clause search it has always made —
# fuel bounds its work, and the cheaper inference kernel leaves the
# search itself unchanged. A hang fails through the test's TIMEOUT;
# wall clock is not gated.
#
#   cmake -DSLP=<slp> -DSLPGEN=<slpgen> -DWORK=<scratch dir> -P <this file>

foreach(Var SLP SLPGEN WORK)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "missing -D${Var}=")
  endif()
endforeach()
file(MAKE_DIRECTORY ${WORK})

execute_process(
  COMMAND ${SLPGEN} --dist=1 --vars=20 --plseg=0.04 --pne=0.11 --seed=1
          --count=100
  OUTPUT_VARIABLE Corpus RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "slpgen failed (${Rc})")
endif()
string(REGEX MATCHALL "[^\n]+" Lines "${Corpus}")
list(GET Lines 68 Outlier)
file(WRITE ${WORK}/outlier.slp "${Outlier}\n")

execute_process(
  COMMAND ${SLP} --no-presolve --fuel=3000 --stats ${WORK}/outlier.slp
  OUTPUT_VARIABLE Text RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "slp failed (${Rc}):\n${Text}")
endif()
if(NOT Text MATCHES "\n    unknown\n")
  message(FATAL_ERROR "expected verdict unknown:\n${Text}")
endif()
if(NOT Text MATCHES "clauses=6318 fuel=3001\n")
  message(FATAL_ERROR "expected clauses=6318 fuel=3001:\n${Text}")
endif()
string(REGEX MATCH "stats: [^\n]*" Stats "${Text}")
message(STATUS "outlier at fuel 3000: ${Stats}")
