# cmake -DBIN_DIR=<bench binary dir> -P paper_figures_smoke.cmake: every
# bench runs at tiny flags and exits 0; each paper figure and table bench
# also prints its `paper-shape checks` block. bench_block_processing exits
# 1 when a Section 5 block strategy fails or finds a different
# `stage2.bk.results` than the in-memory BK run.
function(expect_success bench)
  execute_process(COMMAND "${BIN_DIR}/${bench}" ${ARGN}
    RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${bench} ${ARGN}: exit status ${status}\n${out}${err}")
  endif()
  set(out "${out}" PARENT_SCOPE)
endfunction()

function(expect_paper_shape bench)
  expect_success(${bench} ${ARGN})
  string(FIND "${out}" "paper-shape checks" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${bench} ${ARGN}: no paper-shape checks\n${out}")
  endif()
endfunction()

set(self --base=200 --reps=1)
set(rs --r_base=200 --s_base=160 --reps=1)
expect_paper_shape(bench_fig08_selfjoin_size ${self} --max_factor=2)
expect_paper_shape(bench_fig09_selfjoin_speedup ${self})
expect_paper_shape(bench_table1_selfjoin_stages ${self})
expect_paper_shape(bench_fig11_selfjoin_scaleup ${self})
expect_paper_shape(bench_table2_selfjoin_scaleup_stages ${self})
expect_paper_shape(bench_fig12_rsjoin_size ${rs} --max_factor=2)
expect_paper_shape(bench_fig13_rsjoin_speedup ${rs})
expect_paper_shape(bench_fig14_rsjoin_scaleup ${rs})

# The ablations (DESIGN.md section 4, E10-E18).
expect_success(bench_groups_sweep ${self} --factor=1)
expect_success(bench_length_signatures ${self} --factor=1)
expect_success(bench_combiner ${self} --factor=1)
expect_success(bench_one_stage ${self} --max_factor=2)
expect_success(bench_skew_analysis --base=200 --factor=1)
expect_success(bench_block_processing --base=500 --factor=1 --reps=1)
