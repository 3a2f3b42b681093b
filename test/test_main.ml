let () =
  Alcotest.run "ompsimd"
    (List.concat [ Test_util.suite; Test_gpusim.suite; Test_omprt.suite; Test_workloads.suite; Test_ompir.suite; Test_openmp.suite; Test_openacc.suite; Test_differential.suite; Test_passes.suite; Test_conformance.suite; Test_ompsan.suite; Test_serve.suite; Test_fault.suite; Test_model.suite; Test_experiments.suite; Test_knobs.suite; Test_golden.suite ])
