(* Repository benchmark: the agreement marketplace and the path service.

   bench.exe --workload W --seed N --seconds S --trace 0|1 --jobs J
             [--nproc P] [--scale full|small] [--tamper GATE]

   Prints the host context, a few human-readable lines, and as its last
   line one JSON object {correct, attempted, failed, metrics}.  Exits 1
   when any correctness gate failed, 2 on bad arguments. *)

let workloads = [ "market-wide"; "market-deep"; "serve-uniform"; "serve-zipf" ]

let end_to_end =
  [ ("setup_s", "s"); ("ops_per_s", "1/s"); ("op_mean_us", "us");
    ("op_p99_us", "us"); ("event_p50_us", "us") ]

(* Layers a workload does not exercise report 0. *)
let per_layer =
  [
    ("candidates.enumerate_s", "s"); ("candidates.kept_ratio", "ratio");
    ("negotiate.s", "s"); ("negotiate.pair_ms_first", "ms");
    ("negotiate.pair_ms_last", "ms"); ("econ.score_s", "s"); ("bosco.s", "s");
    ("negotiate.viable_ratio", "ratio"); ("bosco.rounds_per_negotiation", "count");
    ("bosco.cdf_cache_hit_ratio", "ratio"); ("runner.parallel_efficiency", "ratio");
    ("engine.splice_s", "s"); ("engine.prefill_s", "s");
    ("engine.prefill_keys", "count"); ("engine.store_hit_ratio", "ratio");
    ("engine.query_hit_us", "us"); ("engine.query_miss_us", "us");
    ("engine.invalidated_per_event", "count"); ("engine.apply_us", "us");
    ("compact.freeze_s", "s"); ("compact.delta_us", "us");
    ("intent.query_ms", "ms"); ("intent.wall_share", "ratio");
    ("stream.repeat_share", "ratio"); ("obs.trace_overhead", "ratio");
    ("trace.coverage", "ratio");
  ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload W --seed N --seconds S --trace 0|1 --jobs J \
     [--nproc P] [--scale full|small] [--tamper GATE]\n\
     workloads: market-wide market-deep serve-uniform serve-zipf";
  exit 2

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let jobs = ref 0 and nproc = ref 0 and scale = ref "full" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--jobs" :: v :: rest -> jobs := int_of_string v; parse rest
    | "--nproc" :: v :: rest -> nproc := int_of_string v; parse rest
    | "--scale" :: v :: rest -> scale := v; parse rest
    | "--tamper" :: v :: rest -> Measure.tamper := Some v; parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let nproc = if !nproc > 0 then !nproc else Domain.recommended_domain_count () in
  let jobs = if !jobs > 0 then !jobs else nproc in
  if not (List.mem !workload workloads) then usage ();
  if !trace <> 0 && !trace <> 1 then usage ();
  if !scale <> "full" && !scale <> "small" then usage ();
  if jobs > nproc then begin
    Printf.eprintf "bench: refusing a pool of %d domains on %d cores\n" jobs nproc;
    exit 2
  end;
  let small = !scale = "small" in
  Printf.printf
    "{\"context\": {\"workload\": %S, \"seed\": %d, \"seconds\": %g, \"trace\": \
     %d, \"nproc\": %d, \"pool\": %d, \"ocaml\": %S, \"scale\": %S}}\n%!"
    !workload !seed !seconds !trace nproc jobs Sys.ocaml_version !scale;
  let seed = !seed and seconds = !seconds in
  let market spec =
    (if !trace = 0 then Market_bench.run_e2e else Market_bench.run_trace)
      spec ~seconds ~jobs
  in
  let serve spec =
    (if !trace = 0 then Serve_bench.run_e2e else Serve_bench.run_trace)
      spec ~seed ~seconds ~jobs
  in
  (match !workload with
  | "market-wide" -> market (if small then Market_bench.small else Market_bench.wide)
  | "market-deep" -> market (if small then Market_bench.small else Market_bench.deep)
  | "serve-uniform" ->
      serve (if small then Serve_bench.small_uniform else Serve_bench.uniform)
  | _ -> serve (if small then Serve_bench.small_zipf else Serve_bench.zipf));
  let measured = Measure.emitted () in
  let names = if !trace = 0 then end_to_end else per_layer in
  let metrics =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun (n, _, _) -> n = name) measured with
        | Some (_, v, u) when u = unit_ -> (name, v, u)
        | Some _ -> failwith ("unit mismatch for " ^ name)
        | None -> (name, 0.0, unit_))
      names
  in
  List.iter (fun (n, v, u) -> Printf.printf "%-30s %14.4f %s\n" n v u) metrics;
  let correct = !Measure.failed = 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 !Measure.attempted) !Measure.failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_float v) u)
          metrics));
  exit (if correct then 0 else 1)
