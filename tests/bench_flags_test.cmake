# cmake -DBENCH=<bench binary> -P bench_flags_test.cmake: a misspelled flag
# and a malformed number must each exit 2 and name the flag on stderr.
function(expect_usage_error flag named)
  execute_process(COMMAND "${BENCH}" --base=100 ${flag}
    RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT status EQUAL 2)
    message(FATAL_ERROR "${flag}: exit status ${status}, want 2")
  endif()
  string(FIND "${err}" "${named}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${flag}: stderr does not name ${named}: ${err}")
  endif()
endfunction()

expect_usage_error(--bogus_flag=1 --bogus_flag)
expect_usage_error(--reps=x --reps=x)
