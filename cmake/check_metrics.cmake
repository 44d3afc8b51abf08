# Cross-checks the observability name constants against their reference doc.
#
# Run as a ctest script (see tests/CMakeLists.txt, test name
# `metrics_docs_crosscheck`, label `obs`):
#
#   cmake -DNAMES_HEADER=src/obs/names.h -DDOCS=docs/METRICS.md \
#         -DSOURCE_DIR=. -P cmake/check_metrics.cmake
#
# Four invariants, each fatal on violation:
#   1. Every name constant declared in src/obs/names.h — metric, span, and
#      profile-category (`kCat*`) names alike — appears as a backticked
#      table entry in docs/METRICS.md (no undocumented telemetry).
#   2. Every backticked dotted name in a docs/METRICS.md table row is
#      declared in src/obs/names.h (no phantom documentation).
#   3. Every `k*` constant in names.h is referenced (as `names::k*`) by at
#      least one file under src/ or tools/ other than names.h itself (no
#      dead names — tools/ counts because trace_report consumes the span
#      names the serving plane produces).
#   4. The registry series table in names.h (`kSeries`, the schema
#      Registry::global() registers at start) lists every metric — a name
#      whose docs/METRICS.md row has Type counter, gauge, histogram or
#      quantile — exactly once, lists nothing else (span, flow and profile
#      names are not registry series), and gives each the Type and Unit of
#      its row.
#
# Declared names are parsed from the `k... = "value"` declaration pairs, not
# from bare quoted strings, so every constant's value is covered exactly and
# strings in comments don't count.

cmake_minimum_required(VERSION 3.21)  # script mode: pin policies (IN_LIST)

foreach(var NAMES_HEADER DOCS SOURCE_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_metrics.cmake: -D${var}=... is required")
  endif()
endforeach()

if(NOT EXISTS "${NAMES_HEADER}")
  message(FATAL_ERROR "missing ${NAMES_HEADER}")
endif()
if(NOT EXISTS "${DOCS}")
  message(FATAL_ERROR "missing ${DOCS} — every metric must be documented")
endif()

# --- 1+2: the name sets ----------------------------------------------------

# Declared names: the string value of every `k... = "..."` constant in the
# header (metric names, span names, profile category names).
file(READ "${NAMES_HEADER}" header_text)
string(REGEX MATCHALL "k[A-Z][A-Za-z0-9]*[ \t\r\n]*=[ \t\r\n]*\"[^\"]+\""
       decl_pairs "${header_text}")
set(declared "")
foreach(pair IN LISTS decl_pairs)
  # REGEX REPLACE substitutes globally (and re-anchors ^ after each hit),
  # so extract the quoted value with MATCH and strip its delimiters.
  string(REGEX MATCH "\"[^\"]+\"" name "${pair}")
  string(REGEX REPLACE "\"" "" name "${name}")
  list(APPEND declared "${name}")
endforeach()
list(REMOVE_DUPLICATES declared)
list(LENGTH declared declared_count)
if(declared_count EQUAL 0)
  message(FATAL_ERROR "no metric names parsed from ${NAMES_HEADER}")
endif()

# Documented names: backticked dotted tokens in markdown *table cells* only
# (preceded by "| "), so prose references to files (`foo.h`) or symbols
# don't count as metrics. Parsed from the raw text, not file(STRINGS):
# CMake list parsing bracket-protects `[`, which markdown prose contains.
file(READ "${DOCS}" docs_text)
string(REGEX MATCHALL "\\| `[a-z0-9_]+(\\.[a-z0-9_]+)+`" ticked
       "${docs_text}")
set(documented "")
foreach(tick IN LISTS ticked)
  string(REGEX REPLACE "[`| ]" "" name "${tick}")
  list(APPEND documented "${name}")
endforeach()
list(REMOVE_DUPLICATES documented)
list(LENGTH documented documented_count)
if(documented_count EQUAL 0)
  message(FATAL_ERROR "no metric names parsed from ${DOCS} table rows")
endif()

set(failures 0)
foreach(name IN LISTS declared)
  if(NOT name IN_LIST documented)
    message(SEND_ERROR
            "'${name}' is declared in src/obs/names.h but has no table row "
            "in docs/METRICS.md")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()
foreach(name IN LISTS documented)
  if(NOT name IN_LIST declared)
    message(SEND_ERROR
            "'${name}' is documented in docs/METRICS.md but not declared "
            "in src/obs/names.h")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()

# --- 3: no dead constants --------------------------------------------------

string(REGEX MATCHALL "(k[A-Z][A-Za-z0-9]*) =" const_decls "${header_text}")
set(constants "")
foreach(decl IN LISTS const_decls)
  string(REGEX REPLACE " =$" "" const "${decl}")
  list(APPEND constants "${const}")
endforeach()
list(REMOVE_DUPLICATES constants)

file(GLOB_RECURSE source_files
     "${SOURCE_DIR}/src/*.cpp" "${SOURCE_DIR}/src/*.h"
     "${SOURCE_DIR}/tools/*.cpp")
set(all_sources "")
foreach(path IN LISTS source_files)
  if(path STREQUAL "${NAMES_HEADER}")
    continue()
  endif()
  file(READ "${path}" text)
  string(APPEND all_sources "${text}")
endforeach()

foreach(const IN LISTS constants)
  string(FIND "${all_sources}" "names::${const}" pos)
  if(pos EQUAL -1)
    message(SEND_ERROR
            "names::${const} is declared in src/obs/names.h but no file "
            "under src/ uses it — remove it or instrument the site")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()

# --- 4: the series table carries each metric's documented kind and unit ----

# Documented Type and Unit per metric; span, flow and profile rows have no
# Type column, so they do not match.
string(REGEX MATCHALL
       "\\| `[a-z0-9_.]+` \\| (counter|gauge|histogram|quantile) \\| [a-z]+ \\|"
       typed_rows "${docs_text}")
set(metrics "")
foreach(row IN LISTS typed_rows)
  string(REGEX MATCH "`([a-z0-9_.]+)` \\| ([a-z]+) \\| ([a-z]+)" _ "${row}")
  list(APPEND metrics "${CMAKE_MATCH_1}")
  set("doc_type_${CMAKE_MATCH_1}" "${CMAKE_MATCH_2}")
  set("doc_unit_${CMAKE_MATCH_1}" "${CMAKE_MATCH_3}")
endforeach()

foreach(pair IN LISTS decl_pairs)
  string(REGEX MATCH "^k[A-Za-z0-9]*" const "${pair}")
  string(REGEX MATCH "\"([^\"]+)\"" _ "${pair}")
  set("name_of_${const}" "${CMAKE_MATCH_1}")
endforeach()

set(row_regex "{(k[A-Za-z0-9]*), Kind::([A-Za-z]+), Unit::([A-Za-z]+)}")
string(REGEX MATCHALL "${row_regex}" table_rows "${header_text}")
set(tabled "")
foreach(row IN LISTS table_rows)
  string(REGEX MATCH "${row_regex}" _ "${row}")
  set(const "${CMAKE_MATCH_1}")
  set(name "${name_of_${const}}")
  string(TOLOWER "${CMAKE_MATCH_2}" kind)
  string(TOLOWER "${CMAKE_MATCH_3}" unit)
  if(unit STREQUAL "nanoseconds")
    set(unit "ns")
  endif()
  if(NOT name IN_LIST metrics)
    message(SEND_ERROR
            "names::${const} is in the kSeries table but is not a metric "
            "of docs/METRICS.md — span, flow and profile names are not "
            "registry series")
    math(EXPR failures "${failures} + 1")
  elseif(name IN_LIST tabled)
    message(SEND_ERROR "'${name}' appears twice in the kSeries table")
    math(EXPR failures "${failures} + 1")
  elseif(NOT kind STREQUAL "${doc_type_${name}}" OR
         NOT unit STREQUAL "${doc_unit_${name}}")
    message(SEND_ERROR
            "'${name}' is a ${kind} in ${unit} in the kSeries table but a "
            "${doc_type_${name}} in ${doc_unit_${name}} in docs/METRICS.md")
    math(EXPR failures "${failures} + 1")
  endif()
  list(APPEND tabled "${name}")
endforeach()
foreach(name IN LISTS metrics)
  if(NOT name IN_LIST tabled)
    message(SEND_ERROR
            "'${name}' is a documented ${doc_type_${name}} but has no row in "
            "the kSeries table of src/obs/names.h")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()

if(failures GREATER 0)
  message(FATAL_ERROR
          "metrics/docs crosscheck failed with ${failures} mismatch(es)")
endif()

list(LENGTH constants constant_count)
list(LENGTH tabled tabled_count)
message(STATUS
        "metrics crosscheck OK: ${declared_count} names declared, "
        "${documented_count} documented, ${constant_count} constants used, "
        "${tabled_count} registry series with their documented kind and unit")
