# laec_cli argument gate: every malformed numeric flag, unknown row format and
# impossible cache geometry must be refused with exit status 2, never
# simulated as some other value (or hung, or crashed). A refused or failed
# command leaves an existing --out file as it was, and a failed write exits
# 2 too.
#
#   cmake -DCLI=<path to laec_cli> -DWORK=<scratch dir> -P cli_args.cmake

if(NOT CLI OR NOT WORK)
  message(FATAL_ERROR "usage: cmake -DCLI=<laec_cli> -DWORK=<dir> -P cli_args.cmake")
endif()
file(MAKE_DIRECTORY "${WORK}")

# One case per line: the CLI arguments, space-separated.
set(cases
  "run puwmod --dl1-kb=2abc"
  "run puwmod --dl1-kb=-1"
  "run puwmod --dl1-kb=4194304"
  "run puwmod --dl1-kb=3"
  "run puwmod --dl1-ways=0"
  "run puwmod --dl1-ways=3"
  "run puwmod --wbuf=0"
  "run puwmod --div=+5"
  "run puwmod --mem=1e3"
  "run puwmod --inject-single=7"
  "run puwmod --inject-single=-0.1"
  "run puwmod --inject-double=nan"
  "trace puwmod --ops=12k"
  "sweep puwmod --threads=1.5"
  "sweep puwmod --threads=-1"
  "sweep puwmod --shard=0/x"
  "sweep puwmod --seed=12abc"
  "sweep puwmod --seed=0x"
  "sweep puwmod --seed=18446744073709551616"
  "sweep puwmod --threads=2 --dl1-ways=0"
  "campaign puwmod --trials=4294967297"
  "campaign puwmod --trials=-1"
  "campaign puwmod --confidence=1.5"
  "campaign puwmod --accel=inf"
  "campaign puwmod --mbu=s:nan"
  "campaign puwmod --rates=inf"
  "campaign puwmod --threads=2 --dl1-ways=0"
  "campaign puwmod --format=json"
)

set(failures 0)

# Run laec_cli with the space-separated arguments of `case` in WORK and
# count a failure unless it exits 2.
function(expect_exit_2 case)
  separate_arguments(args UNIX_COMMAND "${case}")
  execute_process(
    COMMAND "${CLI}" ${args}
    WORKING_DIRECTORY "${WORK}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET ERROR_QUIET
    TIMEOUT 60)
  if(NOT rc STREQUAL "2")
    message(SEND_ERROR "laec_cli ${case}: expected exit 2, got '${rc}'")
    math(EXPR n "${failures} + 1")
    set(failures ${n} PARENT_SCOPE)
  endif()
endfunction()

foreach(case IN LISTS cases)
  expect_exit_2("${case}")
endforeach()

# A refused or failed command must not touch --out: the row format is
# checked while the flags are parsed, a campaign opens --out only after its
# checkpoint checks (an existing checkpoint without --resume, a corrupt one
# with it), and rows go to a temporary file that replaces --out only when
# the command succeeds (impossible geometry found by the pool, no daemon
# listening).
file(WRITE "${WORK}/existing.ckpt" "a file in the way\n")
file(WRITE "${WORK}/corrupt.ckpt" "LAECCKP1 and nothing a checkpoint holds\n")
set(kept "earlier rows\n")
foreach(case
    "sweep puwmod --format=xml --out=kept.csv"
    "campaign puwmod --checkpoint=existing.ckpt --out=kept.csv"
    "campaign puwmod --checkpoint=corrupt.ckpt --resume --out=kept.csv"
    "sweep puwmod --dl1-ways=0 --out=kept.csv"
    "campaign puwmod --dl1-ways=0 --trials=6 --out=kept.csv"
    "submit puwmod --socket=no-daemon.sock --out=kept.csv")
  file(WRITE "${WORK}/kept.csv" "${kept}")
  expect_exit_2("${case}")
  file(READ "${WORK}/kept.csv" after)
  if(NOT after STREQUAL kept)
    message(SEND_ERROR "laec_cli ${case}: changed kept.csv to '${after}'")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()

# A write that fails (here: disk full) exits 2 instead of passing a
# truncated result file off as complete. A device is written directly,
# never replaced by a renamed file.
if(EXISTS /dev/full)
  expect_exit_2("sweep puwmod --out=/dev/full")
  expect_exit_2("campaign puwmod --dl1-kb=2 --trials=6 --out=/dev/full")
  execute_process(COMMAND test -c /dev/full RESULT_VARIABLE rc)
  if(NOT rc STREQUAL "0")
    message(SEND_ERROR "/dev/full is no longer a character device")
    math(EXPR failures "${failures} + 1")
  endif()
else()
  message(STATUS "no /dev/full here: the disk-full cases are skipped")
endif()

# --seed also takes 0x hex (its default is conventionally written 0x1aec):
# the hex and decimal spellings must select the same seed.
foreach(seed 0x1aec 6892)
  execute_process(
    COMMAND "${CLI}" sweep puwmod --ecc=laec --trace --ops=2000
            --seed=${seed} --out=seed_${seed}.csv
    WORKING_DIRECTORY "${WORK}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET ERROR_QUIET
    TIMEOUT 60)
  if(NOT rc STREQUAL "0")
    message(SEND_ERROR "laec_cli sweep --seed=${seed}: exit '${rc}'")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()
file(READ "${WORK}/seed_0x1aec.csv" hex_rows)
file(READ "${WORK}/seed_6892.csv" dec_rows)
if(NOT hex_rows STREQUAL dec_rows)
  message(SEND_ERROR "--seed=0x1aec and --seed=6892 produced different rows")
  math(EXPR failures "${failures} + 1")
endif()

# A command that succeeds replaces an earlier --out file with its rows and
# leaves no temporary file behind.
file(WRITE "${WORK}/kept.csv" "${kept}")
execute_process(
  COMMAND "${CLI}" sweep puwmod --ecc=laec --trace --ops=2000 --seed=6892
          --out=kept.csv
  WORKING_DIRECTORY "${WORK}"
  RESULT_VARIABLE rc
  OUTPUT_QUIET ERROR_QUIET
  TIMEOUT 60)
file(READ "${WORK}/kept.csv" after)
if(NOT rc STREQUAL "0" OR NOT after STREQUAL dec_rows)
  message(SEND_ERROR "laec_cli sweep --out=kept.csv: exit '${rc}', "
                     "kept.csv does not hold the sweep's rows")
  math(EXPR failures "${failures} + 1")
endif()
file(GLOB leftovers "${WORK}/*.tmp")
if(leftovers)
  message(SEND_ERROR "temporary files left behind: ${leftovers}")
  math(EXPR failures "${failures} + 1")
endif()

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} laec_cli argument check(s) failed")
endif()
