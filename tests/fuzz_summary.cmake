# Run the crash-point fuzzer at a given channel count and require its
# stdout (the campaign summary) to equal a committed golden file.
#
#   cmake -DFUZZ=<thynvm_fuzz> -DCHANNELS=<n> -DGOLDEN=<file>
#         [-DARGS=<extra;args>] [-DEXPECT_RC=<code>]
#         -P fuzz_summary.cmake
#
# ARGS (a ;-list) is appended to the command line; EXPECT_RC (default
# 0) is the exit code the run must end with, so a campaign with an
# injected fault can pin its violation report too.
#
# The summary is identical for any case fan-out thread count and
# THYNVM_CHANNELS setting, so any difference is a behaviour change.
if(NOT DEFINED EXPECT_RC)
    set(EXPECT_RC 0)
endif()
execute_process(
    COMMAND ${FUZZ} --channels ${CHANNELS} ${ARGS}
    OUTPUT_VARIABLE got
    ERROR_VARIABLE log
    RESULT_VARIABLE rc)
file(READ ${GOLDEN} want)
if(NOT rc EQUAL EXPECT_RC)
    message(FATAL_ERROR "thynvm_fuzz --channels ${CHANNELS} ${ARGS} exited "
                        "${rc}, expected ${EXPECT_RC}:\n${got}\n${log}")
endif()
if(NOT got STREQUAL want)
    message(FATAL_ERROR "campaign summary differs from ${GOLDEN}\n"
                        "--- got ---\n${got}--- want ---\n${want}")
endif()
