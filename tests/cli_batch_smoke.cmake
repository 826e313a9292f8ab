# End-to-end check of `bismo_cli --batch`: runs a short Abbe-MO batch and
# asserts from its JSON report that every job actually optimized -- the
# last trace loss is below the first, and the binarized solution's
# L2 + PVB after the run is below the one before it.  The trace is not
# monotone (Adam), so only the end points are compared.
#
#   cmake -DCLI=<bismo_cli> -DOUT=<report.json> -P cli_batch_smoke.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)

execute_process(
  COMMAND "${CLI}" --generate iccad13 --batch 3 --steps 60
          --method abbe-mo --json "${OUT}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bismo_cli exited with ${rc}")
endif()

file(READ "${OUT}" report)
string(JSON jobs GET "${report}" jobs)
string(JSON count LENGTH "${jobs}")
if(count EQUAL 0)
  message(FATAL_ERROR "report lists no jobs")
endif()
math(EXPR last_job "${count} - 1")
foreach(i RANGE ${last_job})
  string(JSON job GET "${jobs}" ${i})
  string(JSON name GET "${job}" job)
  string(JSON ok GET "${job}" ok)
  if(NOT ok)
    message(FATAL_ERROR "${name}: job failed")
  endif()

  string(JSON steps LENGTH "${job}" trace)
  math(EXPR last_step "${steps} - 1")
  string(JSON first_loss GET "${job}" trace 0 loss)
  string(JSON last_loss GET "${job}" trace ${last_step} loss)
  if(NOT last_loss LESS first_loss)
    message(FATAL_ERROR
      "${name}: last trace loss ${last_loss} not below first ${first_loss}")
  endif()

  string(JSON l2_before GET "${job}" before l2_nm2)
  string(JSON pvb_before GET "${job}" before pvb_nm2)
  string(JSON l2_after GET "${job}" after l2_nm2)
  string(JSON pvb_after GET "${job}" after pvb_nm2)
  math(EXPR before "${l2_before} + ${pvb_before}")
  math(EXPR after "${l2_after} + ${pvb_after}")
  if(NOT after LESS before)
    message(FATAL_ERROR
      "${name}: L2+PVB after (${after} nm^2) not below before (${before})")
  endif()
  message(STATUS "${name}: loss ${first_loss} -> ${last_loss}, "
                 "L2+PVB ${before} -> ${after} nm^2")
endforeach()
