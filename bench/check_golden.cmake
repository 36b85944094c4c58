# Golden gate for the figure/ablation drivers: the sha256 of a driver's
# --csv file and of its stdout at --scale 0.1 must equal the digests
# committed in bench/golden.txt, at any --jobs.
#
# Check one driver (the bench.golden.* ctest entries):
#   cmake -DBENCH=<driver executable> -DNAME=<driver> -DJOBS=<n>
#         -DGOLDEN=<golden.txt> -DWORKDIR=<scratch dir>
#         -P check_golden.cmake
#
# Rewrite golden.txt from fresh runs at --jobs 4 (the update_golden
# build target). Use it only for an intended behaviour change, and list
# every digest it moves in CHANGES.md:
#   cmake -DUPDATE=ON -DBENCH_DIR=<dir of the drivers>
#         -DDRIVERS=<name,name,...> -DGOLDEN=<golden.txt>
#         -DWORKDIR=<scratch dir> -P check_golden.cmake
cmake_minimum_required(VERSION 3.23)
set(scale 0.1)

# Runs bench_<name> (or the BENCH executable) at --jobs `jobs` and sets
# <name>_csv / <name>_stdout in the caller to the two digests.
function(golden_digests exe name jobs)
  set(out "${WORKDIR}/golden_${name}_jobs${jobs}")
  file(REMOVE "${out}.csv" "${out}.stdout")
  execute_process(
    COMMAND "${exe}" --scale ${scale} --jobs ${jobs} --csv "${out}.csv"
    OUTPUT_FILE "${out}.stdout"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name} --jobs ${jobs} failed (exit ${rc})")
  endif()
  file(SHA256 "${out}.csv" csv)
  file(SHA256 "${out}.stdout" stdout)
  set(${name}_csv ${csv} PARENT_SCOPE)
  set(${name}_stdout ${stdout} PARENT_SCOPE)
endfunction()

if(UPDATE)
  set(lines
      "# sha256 of each figure/ablation driver's --csv file and stdout at"
      "# --scale 0.1. bench/check_golden.cmake compares them at --jobs 1"
      "# and --jobs 4. Regenerate with the update_golden build target only"
      "# for an intended behaviour change.")
  string(REPLACE "," ";" drivers "${DRIVERS}")
  foreach(name IN LISTS drivers)
    golden_digests("${BENCH_DIR}/bench_${name}" ${name} 4)
    list(APPEND lines "${name} csv ${${name}_csv}"
                      "${name} stdout ${${name}_stdout}")
  endforeach()
  list(JOIN lines "\n" content)
  file(WRITE "${GOLDEN}" "${content}\n")
  message(STATUS "wrote ${GOLDEN}")
  return()
endif()

golden_digests("${BENCH}" ${NAME} ${JOBS})
file(STRINGS "${GOLDEN}" entries REGEX "^${NAME} ")
set(report "")
set(moved FALSE)
foreach(kind csv stdout)
  set(want "")
  foreach(entry IN LISTS entries)
    if(entry MATCHES "^${NAME} ${kind} ([0-9a-f]+)$")
      set(want ${CMAKE_MATCH_1})
    endif()
  endforeach()
  set(got "${${NAME}_${kind}}")
  string(APPEND report "\n  ${kind}: got ${got}, golden.txt has '${want}'")
  if(NOT got STREQUAL want)
    set(moved TRUE)
  endif()
endforeach()
if(moved)
  message(FATAL_ERROR
          "${NAME} --scale ${scale} --jobs ${JOBS} moved off its golden "
          "digests:${report}\nOutputs kept in ${WORKDIR}")
endif()
message(STATUS "${NAME} --jobs ${JOBS}: csv and stdout match golden.txt")
