(* Test runner: one alcotest suite per library module. *)

let () =
  Alcotest.run "panagree"
    [
      ("numerics.rng", Test_rng.suite);
      ("numerics.distribution", Test_distribution.suite);
      ("numerics.stats", Test_stats.suite);
      ("numerics.integrate", Test_integrate.suite);
      ("numerics.optimize", Test_optimize.suite);
      ("topology.graph", Test_graph.suite);
      ("topology.caida", Test_caida.suite);
      ("topology.gen", Test_gen.suite);
      ("topology.geo", Test_geo.suite);
      ("topology.bandwidth", Test_bandwidth.suite);
      ("topology.compact", Test_compact.suite);
      ("topology.path", Test_path.suite);
      ("topology.path_enum", Test_path_enum.suite);
      ("routing.spp", Test_spp.suite);
      ("routing.bgp", Test_bgp.suite);
      ("routing.policy", Test_policy.suite);
      ("scion", Test_scion.suite);
      ("econ.basics", Test_econ_basics.suite);
      ("econ.agreement", Test_agreement.suite);
      ("econ.traffic_model", Test_traffic_model.suite);
      ("econ.nash_opt", Test_nash_opt.suite);
      ("econ.fast_kernel", Test_econ_fast.suite);
      ("bosco", Test_bosco.suite);
      ("bosco.strategy_fast", Test_strategy_fast.suite);
      ("experiments", Test_experiments.suite);
      ("routing.dispute", Test_dispute.suite);
      ("scion.failure_selection", Test_failure_selection.suite);
      ("econ.extension_enforcement", Test_extension_enforcement.suite);
      ("experiments.extensions", Test_extension_experiments.suite);
      ("experiments.adoption", Test_adoption.suite);
      ("scion.traffic", Test_traffic.suite);
      ("topology.metrics", Test_metrics_decomposition.suite);
      ("econ.billing_volume", Test_billing_volume.suite);
      ("bosco.protocol", Test_protocol.suite);
      ("cross.properties", Test_cross_properties.suite);
      ("experiments.fragility", Test_fragility.suite);
      ("scion.combinator_bounds", Test_combinator_bounds.suite);
      ("bosco.efficiency_mc", Test_efficiency_mc.suite);
      ("scion.wire", Test_wire.suite);
      ("routing.bgp_async", Test_bgp_async.suite);
      ("integration.full_pipeline", Test_full_pipeline.suite);
      ("runner.equivalence", Test_runner.suite);
      ("runner.supervise", Test_supervise.suite);
      ("runner.golden", Test_runner_golden.suite);
      ("obs.core", Test_obs.suite);
      ("obs.runner", Test_runner_obs.suite);
      ("obs.bench_json", Test_bench_json.suite);
      ("service.serve", Test_serve.suite);
      ("intent", Test_intent.suite);
      ("market", Test_market.suite);
      ("robustness.decoders", Test_decoders.suite);
    ]
