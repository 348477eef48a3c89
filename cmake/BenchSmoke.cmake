# BenchSmoke.cmake — run one BENCH_*.json writer and check its record.
#
#   cmake -DBENCH=<writer binary> -DNAME=<record name> -DOUT=<record path>
#         -P cmake/BenchSmoke.cmake
#
# The writer must exit 0 (every identity verdict held) and leave a record
# at OUT that parses as JSON and names itself NAME. The bench-labeled
# ctest leg runs each writer this way at smoke scale (the scale comes
# from the test's environment).

foreach(Var BENCH NAME OUT)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "BenchSmoke.cmake: -D${Var}=... is required")
  endif()
endforeach()

file(REMOVE "${OUT}")
set(ENV{PATHFUZZ_BENCH_OUT} "${OUT}")
execute_process(COMMAND "${BENCH}" RESULT_VARIABLE Ret)
if(NOT Ret EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${Ret}")
endif()
if(NOT EXISTS "${OUT}")
  message(FATAL_ERROR "${BENCH} wrote no record at ${OUT}")
endif()

file(READ "${OUT}" Doc)
string(JSON Got ERROR_VARIABLE Err GET "${Doc}" name)
if(Err)
  message(FATAL_ERROR "${OUT} is not a JSON record with a name: ${Err}")
endif()
if(NOT Got STREQUAL NAME)
  message(FATAL_ERROR "${OUT} names itself \"${Got}\", expected \"${NAME}\"")
endif()
