# The Table 1 (vars=20) instance that once ran out of fuel: line 69 of
# the generated corpus below. It is valid, and saturation refutes it
# after 231 given clauses. Two runs pin its search:
#   - at --fuel=100, below that need, it must end unknown with fuel
#     101 spent (fuel bounds its work) and a pinned clause count;
#   - at --fuel=12000 it must end valid with its clause, fuel and
#     forward/backward subsumption counts pinned.
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
  COMMAND ${SLPGEN} --dist=1 --vars=20 --plseg=0.04 --pne=0.11 --seed=1
          --count=100
  OUTPUT_VARIABLE Corpus RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "slpgen failed (${Rc})")
endif()
string(REGEX MATCHALL "[^\n]+" Lines "${Corpus}")
list(GET Lines 68 Outlier)
file(WRITE ${WORK}/outlier.slp "${Outlier}\n")

# Runs the outlier under --fuel=<Budget> and requires <Verdict> and
# every regex in ARGN in the output.
function(check_outlier Budget Verdict)
  execute_process(
    COMMAND ${SLP} --no-presolve --fuel=${Budget} --stats ${WORK}/outlier.slp
    OUTPUT_VARIABLE Text RESULT_VARIABLE Rc)
  if(NOT Rc EQUAL 0)
    message(FATAL_ERROR "slp failed (${Rc}):\n${Text}")
  endif()
  if(NOT Text MATCHES "\n    ${Verdict}\n")
    message(FATAL_ERROR "expected verdict ${Verdict} at fuel ${Budget}:\n${Text}")
  endif()
  foreach(Pin ${ARGN})
    if(NOT Text MATCHES "${Pin}")
      message(FATAL_ERROR "expected '${Pin}' at fuel ${Budget}:\n${Text}")
    endif()
  endforeach()
  string(REGEX MATCH "stats: [^\n]*" Stats "${Text}")
  message(STATUS "outlier at fuel ${Budget}: ${Stats}")
endfunction()

check_outlier(100 unknown "clauses=108 fuel=101\n")
check_outlier(12000 valid "clauses=136 fuel=129\n" "fwd=89 bwd=67 ")
