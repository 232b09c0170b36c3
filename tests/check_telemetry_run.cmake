# Runs one instrumented chip through tenoc_sim with all three telemetry
# sinks and checks the files it writes:
#
#   cmake -DTENOC_SIM=build/examples/tenoc_sim -DOUT=<scratch dir> \
#         -P tests/check_telemetry_run.cmake
#
# The stats JSON must parse as tenoc-metrics-v1 with a config_hash, the
# interval CSV must start with its header and end with the same hash,
# and the trace must parse as a JSON array of events.

cmake_minimum_required(VERSION 3.19) # string(JSON)

file(MAKE_DIRECTORY "${OUT}")
file(REMOVE "${OUT}/a.json" "${OUT}/a.csv" "${OUT}/t.json")
execute_process(COMMAND "${TENOC_SIM}" - workload=MM scale=0.02
        --stats-json a.json --interval-csv a.csv --trace t.json
    WORKING_DIRECTORY "${OUT}"
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "tenoc_sim exited with ${rc}:\n${out}${err}")
endif()

file(READ "${OUT}/a.json" stats)
string(JSON schema GET "${stats}" schema)
if(NOT schema STREQUAL "tenoc-metrics-v1")
    message(FATAL_ERROR "stats schema is '${schema}'")
endif()
string(JSON metrics TYPE "${stats}" metrics)
string(JSON histograms TYPE "${stats}" histograms)
if(NOT metrics STREQUAL "OBJECT" OR NOT histograms STREQUAL "OBJECT")
    message(FATAL_ERROR "stats JSON lacks its metrics/histograms maps")
endif()
string(JSON hash GET "${stats}" config_hash)
if(NOT hash MATCHES "^[0-9a-f]+$")
    message(FATAL_ERROR "bad config_hash '${hash}'")
endif()

file(STRINGS "${OUT}/a.csv" rows)
list(GET rows 0 header)
list(GET rows -1 last)
if(NOT header MATCHES "^window,start,end,")
    message(FATAL_ERROR "interval CSV header is '${header}'")
endif()
if(NOT last STREQUAL "# config_hash=${hash}")
    message(FATAL_ERROR "interval CSV ends '${last}', want hash ${hash}")
endif()

file(READ "${OUT}/t.json" trace)
string(JSON kind TYPE "${trace}")
string(JSON events LENGTH "${trace}")
if(NOT kind STREQUAL "ARRAY" OR events EQUAL 0)
    message(FATAL_ERROR "trace is a ${kind} of ${events} events")
endif()
message(STATUS "telemetry files OK (config_hash ${hash}, "
    "${events} trace events)")
