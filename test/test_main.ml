let () =
  Alcotest.run "safara"
    [
      ("gpu", Suite_gpu.suite);
      ("ir", Suite_ir.suite);
      ("lang", Suite_lang.suite);
      ("analysis", Suite_analysis.suite);
      ("vir", Suite_vir.suite);
      ("ptxas", Suite_ptxas.suite);
      ("sim", Suite_sim.suite);
      ("transform", Suite_transform.suite);
      ("properties", Suite_props.suite);
      ("workloads", Suite_workloads.suite);
      ("extras", Suite_extras.suite);
      ("more", Suite_more.suite);
      ("fortran", Suite_fortran.suite);
      ("timing", Suite_timing.suite);
      ("experiments", Suite_experiments.suite);
      ("engine", Suite_engine.suite);
      ("pipeline", Suite_pipeline.suite);
      ("dataflow", Suite_dataflow.suite);
      ("loopopt", Suite_loopopt.suite);
      ("shapes", Suite_shapes.suite);
      ("check", Suite_check.suite);
      ("legality", Suite_legality.suite);
      ("serve", Suite_serve.suite);
      ("arch", Suite_arch.suite);
    ]
