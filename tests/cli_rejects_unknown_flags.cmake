# hypercast_cli accepts only the flags a command reads: a mistyped or
# foreign flag exits 2 and names it, and a well-formed command still
# runs. Invoked by ctest as
#   cmake -DCLI=<path to hypercast_cli> -P cli_rejects_unknown_flags.cmake

function(expect_exit code)
  execute_process(COMMAND ${CLI} ${ARGN}
                  RESULT_VARIABLE result
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT result EQUAL code)
    message(FATAL_ERROR "hypercast_cli ${ARGN}: exit ${result}, want ${code}\n"
                        "${out}${err}")
  endif()
  set(last_err "${err}" PARENT_SCOPE)
endfunction()

expect_exit(2 plan --n 3 --dests 1,2 --cosched-overlp=4)
if(NOT last_err MATCHES "unknown flag --cosched-overlp")
  message(FATAL_ERROR "the diagnostic does not name the flag: ${last_err}")
endif()

# A flag another command reads is still unknown where it is ignored.
expect_exit(2 chains --n 3 --dests 1,2 --faults 1)
expect_exit(2 compare --n 3 --dests 1,2 --algo wsort)
expect_exit(2 serve --n 3 --requests 4 --dests 1,2)

expect_exit(0 plan --n 3 --algo wsort --source 0 --dests 1,2,5)
