# hypercast_loadgen rejects an integer flag out of its range with exit 2
# naming the flag, instead of wrapping or clamping it. Every case here is
# rejected while flags are parsed, before the generator opens a socket or
# starts a client thread. Invoked by ctest as
#   cmake -DLOADGEN=<path to hypercast_loadgen> -P loadgen_rejects_out_of_range_flags.cmake

function(expect_rejected flag value)
  # --port 1 is in range, so the flag under test is the one rejected.
  execute_process(COMMAND ${LOADGEN} --quiet --port 1 --${flag} ${value}
                  RESULT_VARIABLE result
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT result EQUAL 2)
    message(FATAL_ERROR "hypercast_loadgen --${flag} ${value}: exit ${result}, "
                        "want 2\n${out}${err}")
  endif()
  if(NOT err MATCHES "--${flag} must be in")
    message(FATAL_ERROR "hypercast_loadgen --${flag} ${value}: the diagnostic "
                        "does not name the flag: ${err}")
  endif()
endfunction()

expect_rejected(port 70000)
expect_rejected(port 0)
expect_rejected(port -1)
expect_rejected(connections 0)
expect_rejected(connections 1025)
expect_rejected(connections -3)
expect_rejected(depth 0)
expect_rejected(depth -1)
expect_rejected(requests -1)
expect_rejected(seed -1)
expect_rejected(dim 0)
expect_rejected(dim 21)
expect_rejected(dests 0)
expect_rejected(dests -5)

# The range ends are accepted: with an unknown --mix the generator gets
# past the integer flags and fails on the mix, still before it connects.
execute_process(COMMAND ${LOADGEN} --quiet --port 65535 --connections 1024
                        --depth 1 --requests 0 --seed 0 --dim 20 --dests 1
                        --mix no-such-mix
                RESULT_VARIABLE result
                ERROR_VARIABLE err)
if(NOT result EQUAL 2 OR err MATCHES "must be in" OR NOT err MATCHES "--mix")
  message(FATAL_ERROR "in-range flags: exit ${result}, want 2 naming --mix: "
                      "${err}")
endif()
