# laec_cli argument gate: every malformed numeric flag and every impossible
# cache geometry must be refused with exit status 2, never simulated as some
# other value (or hung, or crashed).
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
)

set(failures 0)
foreach(case IN LISTS cases)
  separate_arguments(args UNIX_COMMAND "${case}")
  execute_process(
    COMMAND "${CLI}" ${args}
    WORKING_DIRECTORY "${WORK}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET ERROR_QUIET
    TIMEOUT 60)
  if(NOT rc STREQUAL "2")
    message(SEND_ERROR "laec_cli ${case}: expected exit 2, got '${rc}'")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()

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

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} laec_cli argument check(s) failed")
endif()
