# Checks that the build rejects a dropped Status or Result: the probe is
# compiled (syntax only) once per case with the build's own compile options,
# and every bare discard must fail while the explicit `(void)` discards
# compile. Invoked by the `unused_result_probe` CTest as
#   cmake -DCXX=... -DOPTIONS=... -DINCLUDE=... -DPROBE=... \
#         -P unused_result_probe.cmake

foreach(var CXX INCLUDE PROBE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "unused_result_probe: ${var} not set")
  endif()
endforeach()

foreach(probe_case BARE_STATUS BARE_RESULT BARE_MEMBER VOID_DISCARD)
  execute_process(
    COMMAND ${CXX} -std=c++20 -fsyntax-only ${OPTIONS} -I${INCLUDE}
            -D${probe_case} ${PROBE}
    RESULT_VARIABLE status
    OUTPUT_QUIET ERROR_VARIABLE errors)
  if(probe_case STREQUAL "VOID_DISCARD")
    if(NOT status EQUAL 0)
      message(FATAL_ERROR "explicit discards failed to compile:\n${errors}")
    endif()
  elseif(status EQUAL 0)
    message(FATAL_ERROR "${probe_case}: a dropped Status/Result compiled")
  elseif(NOT errors MATCHES "unused-result")
    message(FATAL_ERROR "${probe_case} failed for another reason:\n${errors}")
  endif()
endforeach()
