(* The market-wide and market-deep workloads: [Market.run] with the
   default Bosco mechanism, its closed-loop replica, and the traced
   replica that splits the epoch loop into its layers. *)

open Pan_numerics
open Pan_topology
open Measure
module M = Pan_market.Market
module Cand = Pan_market.Candidates
module Neg = Pan_market.Negotiate
module Engine = Pan_service.Engine
module Pool = Pan_runner.Pool
module Obs = Pan_obs.Obs

type spec = {
  n_transit : int;
  n_stub : int;
  epochs : int;
  max_candidates : int;
  w : int;
}

(* Enumeration-bound: ~750k two-hop pairs are enumerated to keep 128. *)
let wide = { n_transit = 300; n_stub = 1000; epochs = 2; max_candidates = 128; w = 16 }

(* Negotiation-bound: 768 candidates per epoch on a 500-AS graph. *)
let deep = { n_transit = 48; n_stub = 440; epochs = 3; max_candidates = 768; w = 32 }

(* Seconds-long runs for the benchmark's own tests. *)
let small = { n_transit = 8; n_stub = 30; epochs = 2; max_candidates = 32; w = 8 }

(* The market's inputs do not depend on the benchmark seed.  The market
   seed draws every AS's business terms and with them the viable share
   of a run (39 to 156 of 256 candidates on market-wide over seeds 1-4;
   660 to 1042 of 2304 on market-deep over topology seeds 1-6), which
   moved every market metric by more than any bound. *)
let topology_seed = 42
let market_seed = 42

let graph spec =
  let params =
    { Gen.default_params with Gen.n_transit = spec.n_transit; n_stub = spec.n_stub }
  in
  Gen.graph (Gen.generate ~params ~seed:topology_seed ())

let config spec =
  { M.default with M.epochs = spec.epochs; w = spec.w; max_candidates = spec.max_candidates;
    seed = market_seed }

(* Everything [Market.run] promises to reproduce, in exact hex floats. *)
let summary (r : M.result) =
  let b = Buffer.create 512 in
  List.iter
    (fun (e : M.epoch_report) ->
      Printf.bprintf b "e%d c%d q%d v%d s%d w%h pod%h p%d i%d\n" e.M.epoch
        e.M.candidates e.M.qualified e.M.viable e.M.signed e.M.welfare
        e.M.mean_pod e.M.new_paths e.M.invalidated)
    r.M.reports;
  List.iter
    (fun (x, y) -> Printf.bprintf b "%d-%d " (Asn.to_int x) (Asn.to_int y))
    r.M.agreements;
  Printf.bprintf b "\npairs %d negotiations %d welfare %h fingerprint %s"
    r.M.pairs r.M.negotiations r.M.welfare r.M.fingerprint;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ------------------------------------------------------------------ *)
(* Replica of the Bosco epoch loop of [Market.run], calling each layer
   through its public function so the benchmark can time the calls.

   [`Closed_loop] negotiates the candidates one after another on the
   calling domain and applies the signed agreements one link at a time,
   timing each negotiation and each link-up: one client waiting on
   each operation.  [`Traced] makes the same calls as [Market.run]
   (pool fan-out, one batch splice per epoch) and times each step.
   Both must reproduce [Market.run]'s result exactly.  [epoch_cands]
   replays each epoch's recorded candidate list instead of enumerating
   it again. *)

type epoch_state = {
  e : int;
  e_graph : Graph.t;  (** link state the epoch negotiated on *)
  e_topo : Compact.t;
  e_cands : Cand.t array;
}

type trace = {
  mutable enumerate_s : float;
  mutable negotiate_s : float;
  mutable splice_s : float;
  mutable query_s : float;
  mutable pair_s : float list;  (** closed loop: one per candidate *)
  mutable event_s : float list;  (** closed loop: one per signed link *)
  mutable states : epoch_state list;  (** epoch order *)
}

let outcome_line buf epoch (o : Neg.outcome) topo =
  let asn i = Asn.to_int (Compact.id topo i) in
  let c = o.Neg.cand in
  Printf.bprintf buf "e%d AS%d-AS%d g%d/%d u:%h/%h pod:%h r:%d c:%b s:%b\n"
    epoch (asn c.Cand.x) (asn c.Cand.y) c.Cand.gain_x c.Cand.gain_y o.Neg.u_x
    o.Neg.u_y o.Neg.pod o.Neg.rounds o.Neg.converged o.Neg.signed

let epoch_welfare (signed : Neg.outcome list) =
  let n = List.length signed in
  if n = 0 then 0.0
  else begin
    let u_x = Array.of_list (List.map (fun (o : Neg.outcome) -> o.Neg.u_x) signed)
    and u_y = Array.of_list (List.map (fun (o : Neg.outcome) -> o.Neg.u_y) signed) in
    let out_x = Array.make n 0.0 and out_y = Array.make n 0.0 in
    ignore (Pan_econ.Nash.after_transfer_into ~n ~u_x ~u_y ~out_x ~out_y : int);
    let total = ref 0.0 in
    for i = 0 to n - 1 do
      total := !total +. out_x.(i) +. out_y.(i)
    done;
    !total
  end

let mean_pod = function
  | [] -> Float.nan
  | viable ->
      List.fold_left (fun acc (o : Neg.outcome) -> acc +. o.Neg.pod) 0.0 viable
      /. float_of_int (List.length viable)

let truthful dist =
  Pan_bosco.Efficiency.expected_nash_truthful
    Pan_bosco.Game.
      {
        dist_x = dist;
        dist_y = dist;
        claims_x = Pan_bosco.Claim.of_list [];
        claims_y = Pan_bosco.Claim.of_list [];
      }

let replica ?pool ?epoch_cands ~mode (config : M.config) g =
  let tr =
    { enumerate_s = 0.0; negotiate_s = 0.0; splice_s = 0.0; query_s = 0.0;
      pair_s = []; event_s = []; states = [] }
  in
  let engine = Engine.of_graph ~mode:Engine.Incremental g in
  let graph = Graph.copy g in
  let dist = Distribution.uniform (-1.0) 1.0 in
  let truthful = truthful dist in
  let buf = Buffer.create 4096 in
  let reports = ref [] and agreements = ref [] in
  let pairs = ref 0 and negotiations = ref 0 in
  let rec epoch e =
    if e <= config.M.epochs then begin
      let topo = Engine.topology engine in
      let cands, dt =
        time (fun () ->
            match epoch_cands with
            | Some l -> List.nth l (e - 1)
            | None ->
                Cand.enumerate ?pool ~min_gain:config.M.min_gain
                  ~max_candidates:config.M.max_candidates topo)
      in
      tr.enumerate_s <- tr.enumerate_s +. dt;
      let n = Array.length cands in
      if n = 0 then begin
        reports :=
          { M.epoch = e; candidates = 0; qualified = 0; viable = 0; signed = 0;
            welfare = 0.0; mean_pod = Float.nan; new_paths = 0; invalidated = 0;
            mech = None }
          :: !reports;
        Printf.bprintf buf "epoch %d: no candidates\n" e
      end
      else begin
        tr.states <-
          { e; e_graph = Graph.copy graph; e_topo = topo; e_cands = cands }
          :: tr.states;
        let negotiate c =
          Neg.negotiate_pair ~graph ~topo ~seed:config.M.seed ~epoch:e
            ~w:config.M.w ~max_demands:config.M.max_demands ~truthful ~dist c
        in
        let outcomes, dt =
          time (fun () ->
              match mode with
              | `Closed_loop ->
                  Array.to_list
                    (Array.map
                       (fun c ->
                         let o, dt = time (fun () -> negotiate c) in
                         tr.pair_s <- dt :: tr.pair_s;
                         o)
                       cands)
              | `Traced ->
                  let rng =
                    Rng.create (Hashtbl.hash (config.M.seed, e, "market-epoch"))
                  in
                  Pan_runner.Task.map_reduce ?pool ~rng ~n ~chunk:config.M.chunk
                    ~f:(fun _ i -> negotiate cands.(i))
                    ~combine:(fun acc o -> o :: acc)
                    ~init:[] ()
                  |> List.rev)
        in
        tr.negotiate_s <- tr.negotiate_s +. dt;
        List.iter (fun o -> outcome_line buf e o topo) outcomes;
        let viable = List.filter (fun (o : Neg.outcome) -> o.Neg.viable) outcomes in
        let signed = List.filter (fun (o : Neg.outcome) -> o.Neg.signed) outcomes in
        pairs := !pairs + n;
        negotiations := !negotiations + List.length viable;
        let welfare = epoch_welfare signed in
        let events =
          List.map
            (fun (o : Neg.outcome) ->
              Engine.Link_up (Engine.Peer (o.Neg.cand.Cand.x, o.Neg.cand.Cand.y)))
            signed
        in
        (* The closed loop charges each link-up for its own garbage, not
           for the negotiations' *)
        if mode = `Closed_loop then Gc.full_major ();
        let invalidated, dt =
          time (fun () ->
              match mode with
              | `Traced -> Engine.apply_batch engine events
              | `Closed_loop ->
                  List.fold_left
                    (fun acc ev ->
                      let k, dt = time (fun () -> Engine.apply engine ev) in
                      tr.event_s <- dt :: tr.event_s;
                      acc + k)
                    0 events)
        in
        tr.splice_s <- tr.splice_s +. dt;
        List.iter
          (fun (o : Neg.outcome) ->
            let x = Compact.id topo o.Neg.cand.Cand.x
            and y = Compact.id topo o.Neg.cand.Cand.y in
            Graph.add_peering graph x y;
            agreements := (x, y) :: !agreements)
          signed;
        let new_paths, dt =
          time (fun () ->
              List.fold_left
                (fun acc (o : Neg.outcome) ->
                  acc
                  + List.length
                      (Engine.query engine ~src:o.Neg.cand.Cand.x
                         ~dst:o.Neg.cand.Cand.y ~policy:Path_enum.Ma_all))
                0 signed)
        in
        tr.query_s <- tr.query_s +. dt;
        Printf.bprintf buf
          "epoch %d: %d candidates %d viable %d signed welfare:%h paths:%d \
           invalidated:%d\n"
          e n (List.length viable) (List.length signed) welfare new_paths
          invalidated;
        reports :=
          { M.epoch = e; candidates = n; qualified = n; viable = List.length viable;
            signed = List.length signed; welfare; mean_pod = mean_pod viable;
            new_paths; invalidated; mech = None }
          :: !reports;
        if signed <> [] then epoch (e + 1)
      end
    end
  in
  epoch 1;
  let reports = List.rev !reports in
  tr.states <- List.rev tr.states;
  let result =
    {
      M.mechanism = M.Bosco;
      reports;
      agreements = List.rev !agreements;
      pairs = !pairs;
      negotiations = !negotiations;
      welfare =
        List.fold_left (fun acc (r : M.epoch_report) -> acc +. r.M.welfare) 0.0 reports;
      fingerprint = Digest.to_hex (Digest.string (Buffer.contents buf));
      oracle_ok = None;
    }
  in
  (result, tr)

(* ------------------------------------------------------------------ *)
(* Set-up and the once-per-run gates                                   *)

let setup spec ~jobs =
  let g, t_gen = time (fun () -> graph spec) in
  let _engine, t_engine = time (fun () -> Engine.of_graph g) in
  let pool, t_pool = time (fun () -> Pool.create ~domains:jobs) in
  Pool.shutdown pool;
  (g, t_gen +. t_engine +. t_pool)

(* Set-up is timed several times in every repetition of the measuring
   loop rather than all at once, so its median samples the whole run;
   it takes 10 to 60 ms. *)
let setup_some spec ~jobs samples =
  for _ = 1 to 9 do
    samples := snd (setup spec ~jobs) :: !samples
  done

(* The untimed reference: [Market.run] on one domain with the
   re-freeze oracle.  Its result is what every other pass must equal. *)
let reference config g =
  match guarded "oracle" (fun () -> M.run ~oracle:true config g) with
  | None -> None
  | Some r ->
      gate "oracle" (r.M.oracle_ok = Some true);
      Some (summary r)

let check name reference r =
  match reference with
  | Some ref_summary -> gate_equal name ref_summary (summary r)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* End-to-end run                                                      *)

let run_e2e spec ~seconds ~jobs =
  let g, t = setup spec ~jobs in
  let setup_s = ref [ t ] in
  let config = config spec in
  let reference = reference config g in
  let rates = ref [] and pair_s = ref [] and event_s = ref [] in
  (* The closed loop replays the epochs' candidate lists after the first
     pass, so its time goes to negotiations and link-ups rather than to
     re-enumerating the same candidates. *)
  let epoch_cands = ref None in
  let closed_loop () =
    match
      guarded "replica" (fun () ->
          match !epoch_cands with
          | None ->
              with_fresh_pool ~jobs (fun pool ->
                  Gc.full_major ();
                  replica ~pool ~mode:`Closed_loop config g)
          | Some epoch_cands ->
              Gc.full_major ();
              replica ~epoch_cands ~mode:`Closed_loop config g)
    with
    | None -> ()
    | Some (r, tr) ->
        check "replica" reference r;
        ops r.M.pairs;
        epoch_cands := Some (List.map (fun st -> st.e_cands) tr.states);
        pair_s := tr.pair_s :: !pair_s;
        event_s := tr.event_s :: !event_s
  in
  closed_loop ();
  repeat_for ~seconds ~min_reps:2 (fun () ->
      probe ();
      (match
         guarded "jobs" (fun () ->
             with_fresh_pool ~jobs (fun pool -> timed (fun () -> M.run ~pool config g)))
       with
      | None -> ()
      | Some (r, wall) ->
          check "jobs" reference r;
          ops r.M.pairs;
          rates := (float_of_int r.M.pairs /. wall) :: !rates);
      probe ();
      closed_loop ();
      probe ();
      setup_some spec ~jobs setup_s);
  let count l = List.fold_left (fun acc x -> acc + List.length x) 0 l in
  Printf.printf
    "market: %d timed runs, %d set-ups, %d closed-loop passes; op = one \
     negotiation (%d samples), event = one signed link-up (%d samples)\n%!"
    (List.length !rates) (List.length !setup_s) (List.length !pair_s)
    (count !pair_s) (count !event_s);
  emit_e2e ~setup:(median !setup_s) ~rate:(median !rates)
    ~op_mean:(pass_mean !pair_s) ~op_p99:(pass_percentile !pair_s 99.0)
    ~event_p50:(pass_percentile !event_s 50.0)

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)

(* One negotiation or scoring sweep over every recorded epoch on one
   domain; returns the per-epoch wall times. *)
let sweep_j1 (config : M.config) tr ~score =
  let dist = Distribution.uniform (-1.0) 1.0 in
  let truthful = truthful dist in
  List.map
    (fun st ->
      snd
        (timed (fun () ->
             Array.iter
               (fun c ->
                 if score then
                   ignore
                     (Neg.score_pair ~graph:st.e_graph ~topo:st.e_topo
                        ~seed:config.M.seed ~epoch:st.e
                        ~max_demands:config.M.max_demands c
                       : float * float)
                 else
                   ignore
                     (Neg.negotiate_pair ~graph:st.e_graph ~topo:st.e_topo
                        ~seed:config.M.seed ~epoch:st.e ~w:config.M.w
                        ~max_demands:config.M.max_demands ~truthful ~dist c
                       : Neg.outcome))
               st.e_cands)))
    tr.states

let run_trace spec ~seconds ~jobs =
  let g, _ = setup spec ~jobs in
  let config = config spec in
  let reference = reference config g in
  let untraced = ref [] and traced = ref [] and steps = ref [] in
  let neg_j1 = ref [] and score_j1 = ref [] and last = ref None in
  repeat_for ~seconds (fun () ->
      (match
         guarded "jobs" (fun () ->
             with_fresh_pool ~jobs (fun pool -> timed (fun () -> M.run ~pool config g)))
       with
      | Some (r, wall) ->
          check "jobs" reference r;
          ops r.M.pairs;
          untraced := wall :: !untraced
      | None -> ());
      Obs.configure ();
      (match
         guarded "replica" (fun () ->
             with_fresh_pool ~jobs (fun pool ->
                 timed (fun () -> replica ~pool ~mode:`Traced config g)))
       with
      | Some ((r, tr), wall) ->
          check "replica" reference r;
          ops r.M.pairs;
          traced := wall :: !traced;
          steps := tr :: !steps;
          last := Some (tr, Obs.metrics ())
      | None -> ());
      Obs.disable ();
      match !last with
      | None -> ()
      | Some (tr, _) ->
          neg_j1 := sweep_j1 config tr ~score:false :: !neg_j1;
          score_j1 := sweep_j1 config tr ~score:true :: !score_j1);
  match !last with
  | None -> ()
  | Some (tr, m) ->
      let c = Pan_obs.Metrics.counter m in
      let med f = median (List.map f !steps) in
      let enumerate_s = med (fun t -> t.enumerate_s)
      and negotiate_s = med (fun t -> t.negotiate_s)
      and splice_s = med (fun t -> t.splice_s)
      and query_s = med (fun t -> t.query_s) in
      let neg_s = median (List.map sum !neg_j1)
      and score_s = median (List.map sum !score_j1) in
      (* mean time per candidate of the first and last epoch, at j=1 *)
      let per_pair_ms k =
        1e3
        *. median (List.map (fun l -> List.nth l k) !neg_j1)
        /. float_of_int (Array.length (List.nth tr.states k).e_cands)
      in
      let traced_s = median !traced in
      Printf.printf
        "traced run split (median of %d, wall %.3f s): enumerate %.3f, \
         negotiate %.3f, splice %.3f, store queries %.3f; untraced wall %.3f s\n%!"
        (List.length !traced) traced_s enumerate_s negotiate_s splice_s query_s
        (median !untraced);
      emit "candidates.enumerate_s" "s" enumerate_s;
      emit "candidates.kept_ratio" "ratio"
        (ratio_i (c "market.candidates.kept") (c "market.candidates.enumerated"));
      emit "negotiate.s" "s" negotiate_s;
      emit "negotiate.pair_ms_first" "ms" (per_pair_ms 0);
      emit "negotiate.pair_ms_last" "ms" (per_pair_ms (List.length tr.states - 1));
      emit "econ.score_s" "s" score_s;
      emit "bosco.s" "s" (neg_s -. score_s);
      emit "negotiate.viable_ratio" "ratio"
        (ratio_i (c "market.viable") (c "market.pairs"));
      emit "bosco.rounds_per_negotiation" "count"
        (ratio_i (c "market.rounds") (c "market.negotiations"));
      emit "bosco.cdf_cache_hit_ratio" "ratio"
        (ratio_i (c "bosco.br.cdf_cache_hits")
           (c "bosco.br.cdf_cache_hits" + c "bosco.br.cdf_cache_misses"));
      emit "runner.parallel_efficiency" "ratio"
        (ratio neg_s (float_of_int jobs *. negotiate_s));
      emit "engine.splice_s" "s" splice_s;
      emit "obs.trace_overhead" "ratio" (ratio traced_s (median !untraced));
      emit "trace.coverage" "ratio"
        (ratio (enumerate_s +. negotiate_s +. splice_s +. query_s) traced_s)
