# Line 606 of the generated Table 1 (vars=20, 1,000 per row) corpus
# below sits near the fuel budget: the sequential path (--jobs=1,
# proving the raw parse) and the engine (proving the canonical rebuild)
# run different searches on it. Both must print valid under
# --fuel=12000 with the pre-solver off.
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
          --count=1000
  OUTPUT_VARIABLE Corpus RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "slpgen failed (${Rc})")
endif()
string(REGEX MATCHALL "[^\n]+" Lines "${Corpus}")
list(GET Lines 605 Query)
file(WRITE ${WORK}/line606.slp "${Query}\n")

# Runs line 606 with the extra flags in ARGN and requires valid.
function(check_valid Path)
  execute_process(
    COMMAND ${SLP} --no-presolve --fuel=12000 ${ARGN} ${WORK}/line606.slp
    OUTPUT_VARIABLE Text RESULT_VARIABLE Rc)
  if(NOT Rc EQUAL 0)
    message(FATAL_ERROR "slp failed (${Rc}):\n${Text}")
  endif()
  if(NOT Text MATCHES "\n    valid\n")
    message(FATAL_ERROR "expected verdict valid on the ${Path}:\n${Text}")
  endif()
endfunction()

check_valid("sequential path" --jobs=1)
check_valid("engine")
