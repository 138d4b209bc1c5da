# Malformed-flag rejection across the CLI surface. Every invocation
# below used to be silently misparsed (strtoull stops at the first
# non-digit, so "--threads=2x" ran with 2 threads and "abc" became 0);
# the checked parsers now reject them with the usage exit code 3.
#
# Run via: cmake -DROCKER_CLI=... -DROCKER_BATCH=... -DFIG7=...
#               -P CliFlagsTest.cmake

function(expect_usage)
  execute_process(COMMAND ${ARGV}
                  RESULT_VARIABLE RC
                  OUTPUT_VARIABLE OUT
                  ERROR_VARIABLE ERR)
  if(NOT RC EQUAL 3)
    message(FATAL_ERROR
            "expected exit 3 from '${ARGV}', got '${RC}'\n${ERR}")
  endif()
endfunction()

# rocker_cli: numeric flags, both spellings, and the env knob.
expect_usage(${ROCKER_CLI} --threads=2x SB)
expect_usage(${ROCKER_CLI} --threads -4 SB)
expect_usage(${ROCKER_CLI} --max-states 10q SB)
expect_usage(${ROCKER_CLI} --max-seconds abc SB)
expect_usage(${ROCKER_CLI} --bitstate 2.5 SB)
# Bitstate widths outside [6, 36]: fewer bits than one array word, or a
# shift past 64 bits.
expect_usage(${ROCKER_CLI} --bitstate 3 SB)
expect_usage(${ROCKER_CLI} --bitstate 100 SB)
expect_usage(${ROCKER_CLI} --mem-budget 1MB SB)
expect_usage(${ROCKER_CLI} --deadline=1.5s SB)
expect_usage(${ROCKER_CLI} --watchdog " 5" SB)
expect_usage(${ROCKER_CLI} --samples 12x SB)
expect_usage(${ROCKER_CLI} --sample-seed 0x10 SB)
expect_usage(${ROCKER_CLI} --progress=abc SB)
expect_usage(${ROCKER_CLI} --jobs 2x --batch nothing.json)
expect_usage(${CMAKE_COMMAND} -E env ROCKER_PROGRESS=abc ${ROCKER_CLI} SB)
# --visited is not an option, nor is --no-compress: each engine has one
# visited set.
expect_usage(${ROCKER_CLI} --visited=striped SB)
expect_usage(${ROCKER_CLI} --no-compress SB)

# fig7_table: the driver's numbers and configuration names; the
# sampling knobs are fixed by the sample-* configurations now.
expect_usage(${FIG7} --min-states 10q)
expect_usage(${FIG7} --reps abc)
expect_usage(${FIG7} --reps 0)
expect_usage(${FIG7} --configs threads-2x)
expect_usage(${FIG7} --configs threads-1)
expect_usage(${FIG7} --configs base,nope)
expect_usage(${FIG7} --configs raw)
expect_usage(${FIG7} --trace t.json)
expect_usage(${FIG7} --samples 12x)

# rocker_batch: numeric defaults and the corpus/manifest contract.
expect_usage(${ROCKER_BATCH} --corpus --jobs 2x)
expect_usage(${ROCKER_BATCH} --corpus --max-states 1e9)
expect_usage(${ROCKER_BATCH} --corpus --mem-budget 12Q)
expect_usage(${ROCKER_BATCH} --corpus --deadline abc)
expect_usage(${ROCKER_BATCH})

message(STATUS "all malformed-flag invocations rejected with exit 3")
