(* Entry point for the whole test suite: one alcotest run over every
   module's suites. *)

let () =
  Alcotest.run "dsm"
    [
      ("range", Test_range.tests);
      ("rsd", Test_rsd.tests);
      ("mem", Test_mem.tests);
      ("sim", Test_sim.tests);
      ("tmk", Test_tmk.tests);
      ("diff-store", Test_store.tests);
      ("shm", Test_shm.tests);
      ("mp+hpf", Test_mp.tests);
      ("compiler", Test_compiler.tests);
      ("lint", Test_lint.tests);
      ("apps", Test_apps.tests);
      ("kv", Test_kv.tests);
      ("harness", Test_harness.tests);
      ("protocol-properties", Test_props.tests);
      ("trace", Test_trace.tests);
      ("net", Test_net.tests);
      ("ft", Test_ft.tests);
      ("perf-goldens", Test_perf_goldens.tests);
      ("perf-infra", Test_perf_infra.tests);
      ("backends", Test_backends.tests);
      ("engine-par", Test_engine_par.tests);
      ("proto-plan", Test_plan.tests);
      ("wmap", Test_wmap.tests);
      ("quiet", Test_quiet.tests);
      ("counters", Test_counters.tests);
    ]
