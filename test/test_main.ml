(* Test entry point: aggregates every suite. *)

let () =
  Alcotest.run "hypertee"
    (Test_util.suite @ Test_crypto.suite @ Test_sim.suite @ Test_arch.suite @ Test_ems.suite
   @ Test_cs.suite @ Test_platform.suite @ Test_attacks.suite @ Test_workloads.suite
   @ Test_extensions.suite @ Test_traps.suite @ Test_failures.suite @ Test_properties.suite @ Test_devices.suite
   @ Test_scale.suite @ Test_dataplane.suite @ Test_obs.suite @ Test_check.suite
   @ Test_elastic.suite @ Test_channel.suite @ Test_parallel.suite @ Test_cloud.suite @ Test_registry.suite)
