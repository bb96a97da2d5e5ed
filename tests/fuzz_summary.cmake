# Run the crash-point fuzzer at a given channel count and require its
# stdout (the campaign summary) to equal a committed golden file.
#
#   cmake -DFUZZ=<thynvm_fuzz> -DCHANNELS=<n> -DGOLDEN=<file>
#         -P fuzz_summary.cmake
#
# The summary is identical for any thread count, window policy and
# THYNVM_CHANNELS setting, so any difference is a behaviour change.
execute_process(
    COMMAND ${FUZZ} --channels ${CHANNELS}
    OUTPUT_VARIABLE got
    ERROR_VARIABLE log
    RESULT_VARIABLE rc)
file(READ ${GOLDEN} want)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "thynvm_fuzz --channels ${CHANNELS} exited ${rc}:\n"
                        "${got}\n${log}")
endif()
if(NOT got STREQUAL want)
    message(FATAL_ERROR "campaign summary differs from ${GOLDEN}\n"
                        "--- got ---\n${got}--- want ---\n${want}")
endif()
