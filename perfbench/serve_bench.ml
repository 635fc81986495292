(* The serve-uniform and serve-zipf workloads: [Serve.run] draining a
   query/churn stream, a one-client closed loop over the same stream,
   and the traced replica of the drain. *)

open Pan_numerics
open Pan_topology
open Measure
module Engine = Pan_service.Engine
module Serve = Pan_service.Serve
module Stream = Pan_service.Stream
module Pool = Pan_runner.Pool
module Obs = Pan_obs.Obs

type spec = {
  n_transit : int;
  n_stub : int;
  requests : int;
  churn : float;
  zipf : bool;
}

(* Uniform endpoints: almost no query key repeats, so the per-pair store
   is bypassed and mid-set prefill plus per-event splices do the work. *)
let uniform = { n_transit = 200; n_stub = 3000; requests = 20000; churn = 0.02; zipf = false }

(* Zipf endpoints and 2% intent queries: over a quarter of the query
   keys repeat, so the memo layers can pay; churn is four times rarer.
   With 2% (not 1%) the slowest 1% of queries lie inside the intent
   latencies, so the p99 does not sit on the edge between intent and
   policy queries and jump with the binomial count of intent queries. *)
let zipf = { uniform with churn = 0.005; zipf = true }

(* Seconds-long runs for the benchmark's own tests. *)
let small_uniform = { uniform with n_transit = 20; n_stub = 200; requests = 1500 }
let small_zipf = { small_uniform with churn = 0.005; zipf = true }

let topology_seed = 42
let zipf_s = 1.1
let intent_share = 0.02
let intent = Pan_intent.Intent.make ~k:4 ()

let graph spec =
  let params =
    { Gen.default_params with Gen.n_transit = spec.n_transit; n_stub = spec.n_stub }
  in
  Gen.graph (Gen.generate ~params ~seed:topology_seed ())

let stream spec ~seed topo =
  let rng = Rng.create (Hashtbl.hash (seed, "perfbench-stream")) in
  if spec.zipf then
    Zipf_stream.generate ~rng ~shape:(Rng.create topology_seed) ~topo
      ~requests:spec.requests ~churn:spec.churn ~s:zipf_s ~intent_share ~intent
  else Stream.generate ~rng ~topo ~requests:spec.requests ~churn:spec.churn ()

type setup = { topo : Compact.t; items : Stream.t; g : Graph.t }

let setup spec ~seed ~jobs =
  let (s, _engine), dt =
    time (fun () ->
        let g = graph spec in
        let topo = Compact.freeze g in
        let items = stream spec ~seed topo in
        let pool = Pool.create ~domains:jobs in
        let engine = Engine.create topo in
        Pool.shutdown pool;
        ({ topo; items; g }, engine))
  in
  (s, dt)

(* Set-up is timed once in every repetition of the measuring loop
   rather than all at once, so its median samples the whole run. *)
let setup_once spec ~seed ~jobs samples =
  samples := snd (setup spec ~seed ~jobs) :: !samples

let count_queries items =
  List.length
    (List.filter
       (function Stream.Query _ | Stream.Intent_query _ -> true | _ -> false)
       items)

(* Same text as the drain's event lines, so replica transcripts can be
   compared with [Serve.run]'s byte for byte. *)
let render_event topo ev dropped =
  let as_ i = Printf.sprintf "AS%d" (Asn.to_int (Compact.id topo i)) in
  let verb, link =
    match ev with Engine.Link_up l -> ("up", l) | Engine.Link_down l -> ("down", l)
  in
  let link =
    match link with
    | Engine.Peer (i, j) -> Printf.sprintf "peer %s -- %s" (as_ i) (as_ j)
    | Engine.Transit { provider; customer } ->
        Printf.sprintf "transit %s -> %s" (as_ provider) (as_ customer)
  in
  Printf.sprintf "link %s %s: invalidated %d store entr%s" verb link dropped
    (if dropped = 1 then "y" else "ies")

let stats_line (s : Engine.stats) =
  Printf.sprintf "queries %d hits %d misses %d events %d invalidated %d"
    s.Engine.queries s.Engine.store_hits s.Engine.store_misses s.Engine.events
    s.Engine.invalidated

(* ------------------------------------------------------------------ *)
(* Replica of the drain.  Every query and event goes through the
   engine's public calls in stream order, each one timed.  With [pool]
   each run of consecutive queries is first prefilled through the pool,
   as [Serve.run] does; without it the client waits on every mid-set
   enumeration itself (the closed loop). *)

type trace = {
  mutable prefill_s : float;
  mutable prefill_keys : int;
  mutable hit_s : float list;
  mutable miss_s : float list;
  mutable intent_s : float list;
  mutable query_s : float list;  (** every query, intent ones too *)
  mutable event_s : float list;
}

let replica ?pool ~topo items =
  let tr =
    { prefill_s = 0.0; prefill_keys = 0; hit_s = []; miss_s = []; intent_s = [];
      query_s = []; event_s = [] }
  in
  let engine = Engine.create topo in
  let buf = Buffer.create 65536 in
  let line s =
    Buffer.add_string buf s;
    Buffer.add_char buf '\n'
  in
  let index t x = Compact.index_of_exn t x in
  let path_enums () = Pan_obs.Metrics.counter (Obs.metrics ()) "path_enum.compact" in
  let rec drain = function
    | [] -> ()
    | (Stream.Query _ | Stream.Intent_query _) :: _ as items ->
        let rec split acc = function
          | ((Stream.Query _ | Stream.Intent_query _) as q) :: rest -> split (q :: acc) rest
          | rest -> (List.rev acc, rest)
        in
        let batch, rest = split [] items in
        let t = Engine.topology engine in
        (match pool with
        | None -> ()
        | Some pool ->
            let keys =
              List.filter_map
                (function Stream.Query q -> Some (index t q.src, q.policy) | _ -> None)
                batch
            in
            let before = path_enums () in
            let (), dt = time (fun () -> Engine.prefill ~pool engine keys) in
            tr.prefill_s <- tr.prefill_s +. dt;
            tr.prefill_keys <- tr.prefill_keys + path_enums () - before);
        List.iter
          (function
            | Stream.Query { src; dst; policy } ->
                let src = index t src and dst = index t dst in
                let hits = (Engine.stats engine).Engine.store_hits in
                let mids, dt = time (fun () -> Engine.query engine ~src ~dst ~policy) in
                tr.query_s <- dt :: tr.query_s;
                if (Engine.stats engine).Engine.store_hits > hits then
                  tr.hit_s <- dt :: tr.hit_s
                else tr.miss_s <- dt :: tr.miss_s;
                line (Serve.render_query t ~src ~dst ~policy mids)
            | Stream.Intent_query { src; dst; intent } ->
                let src = index t src and dst = index t dst in
                let r, dt = time (fun () -> Engine.intent_query engine ~src ~dst intent) in
                tr.query_s <- dt :: tr.query_s;
                tr.intent_s <- dt :: tr.intent_s;
                line (Serve.render_intent_query t ~src ~dst intent r)
            | Stream.Up _ | Stream.Down _ -> assert false)
          batch;
        drain rest
    | ev :: rest ->
        let t = Engine.topology engine in
        let ev = Serve.event_of_item t ev in
        let dropped, dt = time (fun () -> Engine.apply engine ev) in
        tr.event_s <- dt :: tr.event_s;
        line (render_event t ev dropped);
        drain rest
  in
  drain items;
  let transcript = Buffer.contents buf in
  (Digest.to_hex (Digest.string transcript), Engine.stats engine, tr)

(* ------------------------------------------------------------------ *)
(* Gates                                                               *)

(* The untimed reference: [Serve.run] on one domain with the re-freeze
   shadow engine, which raises on any incremental-splice divergence. *)
let reference s =
  match
    guarded "oracle" (fun () ->
        Serve.run ~oracle:true ~mode:Engine.Incremental ~topo:s.topo s.items)
  with
  | None -> None
  | Some o ->
      gate "oracle" true;
      Some o

let check reference ~name fingerprint stats =
  match reference with
  | None -> ()
  | Some (o : Serve.outcome) ->
      gate_equal name o.Serve.fingerprint fingerprint;
      gate_equal "stats" (stats_line o.Serve.stats) (stats_line stats)

(* ------------------------------------------------------------------ *)
(* End-to-end run                                                      *)

let run_e2e spec ~seed ~seconds ~jobs =
  let s, t = setup spec ~seed ~jobs in
  let setup_s = ref [ t ] in
  let n_queries = count_queries s.items in
  let n_events = List.length s.items - n_queries in
  Printf.printf "stream: %d queries, %d events, repeat share %.4f\n%!" n_queries
    n_events (Zipf_stream.repeat_share s.items);
  let reference = reference s in
  let rates = ref [] and query_s = ref [] and event_s = ref [] in
  repeat_for ~seconds ~min_reps:2 (fun () ->
      probe ();
      (match
         guarded "jobs" (fun () ->
             with_fresh_pool ~jobs (fun pool ->
                 timed (fun () ->
                     Serve.run ~pool ~mode:Engine.Incremental ~topo:s.topo s.items)))
       with
      | None -> ()
      | Some (o, wall) ->
          check reference ~name:"jobs" o.Serve.fingerprint o.Serve.stats;
          ops (List.length s.items);
          rates := (float_of_int n_queries /. wall) :: !rates);
      probe ();
      (match
         guarded "replica" (fun () ->
             Gc.full_major ();
             replica ~topo:s.topo s.items)
       with
      | None -> ()
      | Some (fp, stats, tr) ->
          check reference ~name:"replica" fp stats;
          ops (List.length s.items);
          query_s := tr.query_s :: !query_s;
          event_s := tr.event_s :: !event_s);
      probe ();
      setup_once spec ~seed ~jobs setup_s);
  let count l = List.fold_left (fun acc x -> acc + List.length x) 0 l in
  Printf.printf
    "serve: %d timed drains, %d set-ups, %d closed-loop passes; op = one \
     query (%d samples), event = one churn event (%d samples)\n%!"
    (List.length !rates) (List.length !setup_s) (List.length !query_s)
    (count !query_s) (count !event_s);
  emit_e2e ~setup:(median !setup_s) ~rate:(median !rates)
    ~op_mean:(pass_mean !query_s) ~op_p99:(pass_percentile !query_s 99.0)
    ~event_p50:(pass_percentile !event_s 50.0)

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)

let delta_edit topo item =
  let module D = Compact.Delta in
  match Serve.event_of_item topo item with
  | Engine.Link_up (Engine.Peer (i, j)) -> D.Add_peering (i, j)
  | Engine.Link_down (Engine.Peer (i, j)) -> D.Remove_peering (i, j)
  | Engine.Link_up (Engine.Transit { provider; customer }) ->
      D.Add_provider_customer { provider; customer }
  | Engine.Link_down (Engine.Transit { provider; customer }) ->
      D.Remove_provider_customer { provider; customer }

(* The stream's churn replayed through the CSR splice alone, one
   single-edit batch per event as the engine applies it. *)
let delta_replay topo items =
  let edits =
    List.filter_map
      (function
        | Stream.Query _ | Stream.Intent_query _ -> None
        | ev -> Some (delta_edit topo ev))
      items
  in
  let (_ : Compact.t), dt =
    timed (fun () ->
        List.fold_left (fun t e -> Compact.Delta.apply_batch t [ e ]) topo edits)
  in
  ratio dt (float_of_int (List.length edits))

let run_trace spec ~seed ~seconds ~jobs =
  let s, _ = setup spec ~seed ~jobs in
  let reference = reference s in
  let untraced = ref [] and traced = ref [] and runs = ref [] and prefill_j1 = ref [] in
  let replica_gate ~jobs =
    guarded "replica" (fun () ->
        with_fresh_pool ~jobs (fun pool ->
            let (fp, stats, tr), wall = timed (fun () -> replica ~pool ~topo:s.topo s.items) in
            check reference ~name:"replica" fp stats;
            ops (List.length s.items);
            (stats, tr, wall)))
  in
  repeat_for ~seconds (fun () ->
      (match
         guarded "jobs" (fun () ->
             with_fresh_pool ~jobs (fun pool ->
                 timed (fun () ->
                     Serve.run ~pool ~mode:Engine.Incremental ~topo:s.topo s.items)))
       with
      | Some (o, wall) ->
          check reference ~name:"jobs" o.Serve.fingerprint o.Serve.stats;
          ops (List.length s.items);
          untraced := wall :: !untraced
      | None -> ());
      Obs.configure ();
      (match replica_gate ~jobs with
      | Some ((_, _, wall) as run) ->
          traced := wall :: !traced;
          runs := run :: !runs
      | None -> ());
      (* the same prefills on one domain, for the pool's efficiency *)
      (match replica_gate ~jobs:1 with
      | Some (_, tr, _) -> prefill_j1 := tr.prefill_s :: !prefill_j1
      | None -> ());
      Obs.disable ());
  match !runs with
  | [] -> ()
  | (stats, tr, _) :: _ ->
      let med f = median (List.map (fun (_, tr, _) -> f tr) !runs) in
      let prefill_s = med (fun tr -> tr.prefill_s)
      and policy_s = med (fun tr -> sum tr.hit_s +. sum tr.miss_s)
      and intent_s = med (fun tr -> sum tr.intent_s)
      and event_s = med (fun tr -> sum tr.event_s) in
      let traced_s = median !traced in
      let freeze_s =
        median (List.init 5 (fun _ -> snd (timed (fun () -> Compact.freeze s.g))))
      in
      Printf.printf
        "traced drain split (median of %d, wall %.3f s): prefill %.3f, policy \
         queries %.3f, intent queries %.3f, events %.3f; untraced wall %.3f s\n%!"
        (List.length !runs) traced_s prefill_s policy_s intent_s event_s
        (median !untraced);
      emit "engine.prefill_s" "s" prefill_s;
      emit "engine.prefill_keys" "count" (float_of_int tr.prefill_keys);
      emit "engine.store_hit_ratio" "ratio"
        (ratio_i stats.Engine.store_hits stats.Engine.queries);
      emit "engine.query_hit_us" "us" (med (fun tr -> mean tr.hit_s) *. 1e6);
      emit "engine.query_miss_us" "us" (med (fun tr -> mean tr.miss_s) *. 1e6);
      emit "engine.invalidated_per_event" "count"
        (ratio_i stats.Engine.invalidated stats.Engine.events);
      emit "engine.apply_us" "us" (med (fun tr -> mean tr.event_s) *. 1e6);
      emit "compact.freeze_s" "s" freeze_s;
      emit "compact.delta_us" "us" (delta_replay s.topo s.items *. 1e6);
      emit "intent.query_ms" "ms" (med (fun tr -> mean tr.intent_s) *. 1e3);
      emit "intent.wall_share" "ratio" (ratio intent_s traced_s);
      emit "runner.parallel_efficiency" "ratio"
        (ratio (median !prefill_j1) (float_of_int jobs *. prefill_s));
      emit "stream.repeat_share" "ratio" (Zipf_stream.repeat_share s.items);
      emit "obs.trace_overhead" "ratio" (ratio traced_s (median !untraced));
      emit "trace.coverage" "ratio"
        (ratio (prefill_s +. policy_s +. intent_s +. event_s) traced_s)
