# Malformed-flag rejection across the CLI surface. Every invocation
# below used to be silently misparsed (strtoull stops at the first
# non-digit, so "--threads=2x" ran with 2 threads and "abc" became 0);
# the checked parsers now reject them with the usage exit code 3.
# All of them run in one fresh directory, so a binary that takes a flag
# for a file name leaves the file where the test can see it.
#
# Run via: cmake -DROCKER_CLI=... -DROCKER_BATCH=... -DFIG7=...
#               -DCORPUS_EXPORT=... -P CliFlagsTest.cmake

set(WORK "${CMAKE_CURRENT_BINARY_DIR}/cli_flags_work")
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

function(expect_usage)
  execute_process(COMMAND ${ARGV}
                  WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE RC
                  OUTPUT_VARIABLE OUT
                  ERROR_VARIABLE ERR)
  if(NOT RC EQUAL 3)
    message(FATAL_ERROR
            "expected exit 3 from '${ARGV}', got '${RC}'\n${ERR}")
  endif()
  set(USAGE_OUTPUT "${OUT}${ERR}" PARENT_SCOPE)
endfunction()

# As expect_usage, and the binary must print its usage text.
function(expect_help)
  expect_usage(${ARGV})
  if(NOT USAGE_OUTPUT MATCHES "usage: ")
    message(FATAL_ERROR
            "expected a usage text from '${ARGV}', got\n${USAGE_OUTPUT}")
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
# Nor is --promela: the native engine replaced the Spin pipeline.
expect_usage(${ROCKER_CLI} --promela SB)

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
# --help is the usage text, and never takes the next word as a value.
expect_help(${FIG7} --help)
expect_help(${FIG7} --help SB)

# rocker_batch: numeric defaults and the corpus/manifest contract.
expect_usage(${ROCKER_BATCH} --corpus --jobs 2x)
expect_usage(${ROCKER_BATCH} --corpus --max-states 1e9)
expect_usage(${ROCKER_BATCH} --corpus --mem-budget 12Q)
expect_usage(${ROCKER_BATCH} --corpus --deadline abc)
expect_usage(${ROCKER_BATCH})

# corpus_export: one optional directory operand, and no flags.
expect_help(${CORPUS_EXPORT} --help)
expect_help(${CORPUS_EXPORT} a b)
if(EXISTS "${WORK}/--help" OR EXISTS "${WORK}/a")
  message(FATAL_ERROR "corpus_export wrote programs for a refused call")
endif()

message(STATUS "all malformed-flag and --help invocations exit 3")
