# Build file of the benchmark program. run.py configures the root project
# with -DCMAKE_PROJECT_INCLUDE=<this file>, so the root build files stay
# as they are. The include runs at the root's project() call, before the
# library targets exist, so defining the target is deferred to the end
# of the root CMakeLists.txt.
set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(perfbench_add_target)
  add_executable(perfbench
    ${PERFBENCH_DIR}/main.cpp
    ${PERFBENCH_DIR}/harness.cpp
    ${PERFBENCH_DIR}/layers.cpp
    ${PERFBENCH_DIR}/workloads.cpp
    ${PERFBENCH_DIR}/wrap.cpp
  )
  target_link_libraries(perfbench PRIVATE
    skelcl_service skelcl_mandelbrot skelcl_osem)

  # clc entry points called from the ocl layer; wrap.cpp times each call.
  set(wrapped
    COMPILE "_ZN3clc7compileERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE"
    OPTIMIZE "_ZN3clc8optimizeERNS_7ProgramENS_8OptLevelE"
    SERIALIZE "_ZN3clc16serializeProgramERKNS_7ProgramE"
    DESERIALIZE "_ZN3clc18deserializeProgramERKSt6vectorIhSaIhEE"
    EXECUTE "_ZN3clc13executeKernelERKNS_7ProgramERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_7NDRangeERKSt6vectorINS_14KernelArgValueESaISF_EERKSE_INS_7SegmentESaISK_EEPN6common10ThreadPoolE"
  )
  while(wrapped)
    list(POP_FRONT wrapped key symbol)
    target_compile_definitions(perfbench PRIVATE
      PERFBENCH_SYM_${key}="${symbol}")
    target_link_options(perfbench PRIVATE "LINKER:--wrap=${symbol}")
  endwhile()

  # wrap.cpp reaches the wrapped functions through weak references, which
  # do not pull members out of an archive; linking every library under
  # src/ whole makes them resolve wherever the functions live.
  set(archives "")
  get_property(dirs DIRECTORY "${CMAKE_SOURCE_DIR}/src" PROPERTY SUBDIRECTORIES)
  foreach(dir IN LISTS dirs)
    get_property(targets DIRECTORY "${dir}" PROPERTY BUILDSYSTEM_TARGETS)
    foreach(target IN LISTS targets)
      get_target_property(type ${target} TYPE)
      if(type STREQUAL "STATIC_LIBRARY")
        string(APPEND archives " $<TARGET_FILE:${target}>")
        add_dependencies(perfbench ${target})
      endif()
    endforeach()
  endforeach()
  target_link_options(perfbench PRIVATE
    "SHELL:-Wl,--whole-archive${archives} -Wl,--no-whole-archive")
endfunction()

cmake_language(DEFER CALL perfbench_add_target)
