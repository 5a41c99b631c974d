# Fixture test for sysuq_analyze: run it over a bad fixture and require
# exit status 1, violations found. 0 means a pass stopped firing; any
# other status is a bug as well (2: no such path or a bad flag, 66: a
# ThreadSanitizer report, or a crash), which a bare WILL_FAIL, passing on
# every nonzero status, would hide. Invoked by ctest as
#   cmake -DANALYZER=... -DONLY=<rule list, or empty for every rule>
#         -DROOT=<fixture directory> -P this
foreach(var ANALYZER ROOT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "expect_violations.cmake: ${var} not set")
  endif()
endforeach()

set(cmd ${ANALYZER})
if(ONLY)
  list(APPEND cmd --only ${ONLY})
endif()
list(APPEND cmd ${ROOT})
execute_process(
  COMMAND ${cmd}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR
    "sysuq_analyze exited ${rc} (want 1) on ${ROOT} with --only '${ONLY}'\n"
    "stdout:\n${out}\nstderr:\n${err}")
endif()
