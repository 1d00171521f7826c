# Determinism smoke through the real binary: run damn_bench twice and
# require the --json and --trace files of the two runs to be
# byte-identical.  With VARY the runs differ in exactly that one flag
# (e.g. --jobs=1 vs --jobs=8); without it they are two same-seed runs.
#
# Invoked as:
#   cmake -DBENCH=<damn_bench> -DOUT=<dir> -DNAME=<tag>
#         "-DARGS=<space-separated damn_bench options>"
#         ["-DVARY=<flag of run 1> <flag of run 2>"]
#         [-DMIN_TRACE_BYTES=<n>] -P determinism_smoke.cmake

separate_arguments(args UNIX_COMMAND "${ARGS}")
separate_arguments(vary UNIX_COMMAND "${VARY}")

foreach(run 0 1)
    set(flag)
    if(vary)
        list(GET vary ${run} flag)
    endif()
    execute_process(
        COMMAND ${BENCH} ${args} ${flag}
                --trace=${OUT}/${NAME}_${run}.trace
                --json=${OUT}/${NAME}_${run}.json
        RESULT_VARIABLE rc
        OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "damn_bench run ${run} ${flag} failed: ${rc}")
    endif()
endforeach()

foreach(ext json trace)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                ${OUT}/${NAME}_0.${ext} ${OUT}/${NAME}_1.${ext}
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${ext} output differs between the runs "
                            "(${VARY})")
    endif()
endforeach()

# The trace must be non-trivial (events, not just the JSON skeleton),
# or the comparison would be vacuous.
if(MIN_TRACE_BYTES)
    file(SIZE ${OUT}/${NAME}_0.trace trace_bytes)
    if(trace_bytes LESS MIN_TRACE_BYTES)
        message(FATAL_ERROR "trace output suspiciously small: "
                            "${trace_bytes} bytes")
    endif()
endif()
