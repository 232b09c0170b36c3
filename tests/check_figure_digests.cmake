# Runs every figure named in a digest file through one `figures 0.02
# <names...>` invocation, splits stdout at each figure's banner and
# compares the SHA-256 of each part with its recorded digest:
#
#   cmake -DFIGURES=build/bench/figures \
#         -DDIGESTS=tests/figure_digests.txt \
#         -P tests/check_figure_digests.cmake
#
# The digest file holds `#` comments and one `<name> <sha256>` line per
# figure, in run order.  A part's digest is `sha256sum` of that
# figure's stdout alone (`figures 0.02 <name> | sha256sum`).  On a
# mismatch the script prints every measured digest in the file's
# format.

cmake_minimum_required(VERSION 3.16)

file(STRINGS "${DIGESTS}" lines REGEX "^[a-z0-9_]+ [0-9a-f]+$")
set(names "")
set(expected "")
foreach(line IN LISTS lines)
    string(REPLACE " " ";" pair "${line}")
    list(GET pair 0 name)
    list(GET pair 1 digest)
    list(APPEND names ${name})
    list(APPEND expected ${digest})
endforeach()
list(LENGTH names count)
if(count EQUAL 0)
    message(FATAL_ERROR "no digests in ${DIGESTS}")
endif()

execute_process(COMMAND "${FIGURES}" 0.02 ${names}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "figures exited with ${rc}:\n${err}")
endif()

# Byte offsets of the banners; each figure's output starts at one.
set(marker "==============================================================\ntenoc reproduction: ")
set(starts "")
set(rest "${out}")
set(offset 0)
while(TRUE)
    string(FIND "${rest}" "${marker}" pos)
    if(pos EQUAL -1)
        break()
    endif()
    math(EXPR at "${offset} + ${pos}")
    list(APPEND starts ${at})
    math(EXPR skip "${pos} + 1")
    string(SUBSTRING "${rest}" ${skip} -1 rest)
    math(EXPR offset "${offset} + ${skip}")
endwhile()
list(LENGTH starts parts)
if(NOT parts EQUAL count)
    message(FATAL_ERROR "expected ${count} figure banners, got ${parts}")
endif()
string(LENGTH "${out}" total)
list(APPEND starts ${total})

set(report "")
set(mismatches "")
math(EXPR last "${count} - 1")
foreach(k RANGE ${last})
    math(EXPR next "${k} + 1")
    list(GET starts ${k} begin)
    list(GET starts ${next} end)
    math(EXPR len "${end} - ${begin}")
    string(SUBSTRING "${out}" ${begin} ${len} part)
    string(SHA256 got "${part}")
    list(GET names ${k} name)
    list(GET expected ${k} want)
    string(APPEND report "${name} ${got}\n")
    if(NOT got STREQUAL want)
        list(APPEND mismatches ${name})
    endif()
endforeach()
if(mismatches)
    message("measured digests:\n${report}")
    message(FATAL_ERROR "figure output changed: ${mismatches}")
endif()
message(STATUS "${count} figures match their recorded digests")
