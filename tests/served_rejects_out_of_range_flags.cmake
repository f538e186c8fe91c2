# hypercast_served rejects an integer flag out of its range with exit 2
# naming the flag, instead of wrapping or clamping it. Every case here is
# rejected while flags are parsed, before the daemon binds a socket or
# starts a worker. Invoked by ctest as
#   cmake -DSERVED=<path to hypercast_served> -P served_rejects_out_of_range_flags.cmake

function(expect_rejected flag value)
  execute_process(COMMAND ${SERVED} --quiet --${flag} ${value}
                  RESULT_VARIABLE result
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT result EQUAL 2)
    message(FATAL_ERROR "hypercast_served --${flag} ${value}: exit ${result}, "
                        "want 2\n${out}${err}")
  endif()
  if(NOT err MATCHES "--${flag} must be in")
    message(FATAL_ERROR "hypercast_served --${flag} ${value}: the diagnostic "
                        "does not name the flag: ${err}")
  endif()
endfunction()

expect_rejected(port 70000)
expect_rejected(port -1)
expect_rejected(workers 0)
expect_rejected(workers -3)
expect_rejected(batch-max 0)
expect_rejected(queue-cap 0)
expect_rejected(queue-cap -1)
expect_rejected(deadline-ms -1)
expect_rejected(max-conns -1)
expect_rejected(cosched-max-waves -1)

# The range ends are accepted: with an unknown algorithm the daemon gets
# past the flags and fails in start(), which checks the algorithm before
# it opens any socket.
execute_process(COMMAND ${SERVED} --quiet --port 65535 --workers 1
                        --queue-cap 1 --batch-max 1 --deadline-ms 0
                        --algo no-such-algorithm
                RESULT_VARIABLE result
                ERROR_VARIABLE err)
if(NOT result EQUAL 2 OR err MATCHES "must be in" OR
   NOT err MATCHES "no-such-algorithm")
  message(FATAL_ERROR "in-range flags: exit ${result}, want 2 naming the "
                      "algorithm: ${err}")
endif()
