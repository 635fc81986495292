(* Marketplace determinism suite (lib/market).

   The headline properties, in the spirit of the PR 5 runner-equivalence
   and PR 7 churn-equivalence suites: a marketplace run's epoch outcomes
   — the signed agreement set, welfare totals, and the byte-exact
   transcript fingerprint — are identical for every pool size, for every
   chunk size, and under injected faults with retries; and the epoch
   loop's incrementally-spliced topology is byte-identical to a
   from-scratch freeze of the equivalently-mutated graph (the Delta
   oracle). *)

open Pan_topology
open Pan_market
module Pool = Pan_runner.Pool
module Fault = Pan_runner.Fault

let gen_graph ?(n_transit = 8) ?(n_stub = 30) seed =
  let params = { Gen.default_params with Gen.n_transit; Gen.n_stub } in
  Gen.graph (Gen.generate ~params ~seed ())

let config ?(epochs = 2) ?(seed = 11) () =
  {
    Market.default with
    Market.epochs;
    w = 8;
    max_candidates = 32;
    chunk = 5;
    seed;
  }

let same_result (a : Market.result) (b : Market.result) =
  String.equal a.Market.fingerprint b.Market.fingerprint
  && a.Market.agreements = b.Market.agreements
  && a.Market.welfare = b.Market.welfare
  && List.map (fun (r : Market.epoch_report) -> (r.Market.epoch, r.Market.welfare)) a.Market.reports
     = List.map (fun (r : Market.epoch_report) -> (r.Market.epoch, r.Market.welfare)) b.Market.reports
  (* the Both-mode comparison records hold possibly-nan PoD means, so
     [compare] (which equates nans) instead of [=] *)
  && compare
       (List.map (fun (r : Market.epoch_report) -> r.Market.mech) a.Market.reports)
       (List.map (fun (r : Market.epoch_report) -> r.Market.mech) b.Market.reports)
     = 0

let mech_gen =
  QCheck.oneofl [ Market.Bosco; Market.Nash_peering; Market.Both ]

(* ------------------------------------------------------------------ *)
(* j=1 = j=4, any chunk size — every mechanism                         *)

let qcheck_jobs_equivalence =
  QCheck.Test.make ~count:6
    ~name:
      "market: epoch outcomes byte-identical at j=1 vs j=4, any chunk, every \
       mechanism"
    QCheck.(pair (int_range 1 1_000) mech_gen)
    (fun (seed, mechanism) ->
      let g = gen_graph seed in
      let cfg = config ~seed () in
      let seq = Market.run ~mechanism cfg g in
      let par =
        Pool.with_pool ~domains:4 (fun pool ->
            Market.run ~pool ~mechanism cfg g)
      in
      let rechunked = Market.run ~mechanism { cfg with Market.chunk = 16 } g in
      same_result seq par && same_result seq rechunked)

(* ------------------------------------------------------------------ *)
(* Faults + retries reproduce the fault-free run — every mechanism     *)

let qcheck_fault_equivalence =
  QCheck.Test.make ~count:4
    ~name:
      "market: faulty run with retries = fault-free, j=1 and j=4, every \
       mechanism"
    QCheck.(pair (int_range 1 1_000) mech_gen)
    (fun (seed, mechanism) ->
      let g = gen_graph seed in
      let cfg = config ~seed () in
      let baseline = Market.run ~mechanism cfg g in
      (* rate 0.3 with 10 retries: exhausting a chunk is ~6e-6 *)
      Fault.set
        (Some { Fault.seed; rate = 0.3; delay = 0.0; delay_rate = 0.0 });
      Fun.protect
        ~finally:(fun () -> Fault.set None)
        (fun () ->
          let faulty_seq = Market.run ~mechanism ~retries:10 cfg g in
          let faulty_par =
            Pool.with_pool ~domains:4 (fun pool ->
                Market.run ~pool ~mechanism ~retries:10 cfg g)
          in
          same_result baseline faulty_seq && same_result baseline faulty_par))

(* ------------------------------------------------------------------ *)
(* Delta oracle: spliced topology = from-scratch freeze, every epoch   *)

let test_delta_oracle () =
  let g = gen_graph 3 in
  let r = Market.run ~oracle:true (config ~seed:3 ()) g in
  Alcotest.(check (option bool)) "oracle" (Some true) r.Market.oracle_ok;
  Alcotest.(check bool) "candidates were scored" true (r.Market.pairs > 0);
  Alcotest.(check bool) "negotiations ran" true (r.Market.negotiations > 0);
  Alcotest.(check bool) "agreements were signed" true
    (r.Market.agreements <> []);
  Alcotest.(check int) "reports cover the signed totals"
    (List.length r.Market.agreements)
    (List.fold_left
       (fun acc (e : Market.epoch_report) -> acc + e.Market.signed)
       0 r.Market.reports)

(* Signing reshapes the next epoch: every signed pair is connected
   afterwards, so no agreement can recur across epochs. *)
let test_agreements_distinct () =
  let g = gen_graph 7 in
  let r = Market.run (config ~epochs:3 ~seed:7 ()) g in
  let norm (x, y) = if Asn.compare x y <= 0 then (x, y) else (y, x) in
  let pairs = List.map norm r.Market.agreements in
  Alcotest.(check int) "no pair signed twice"
    (List.length pairs)
    (List.length (List.sort_uniq compare pairs))

(* ------------------------------------------------------------------ *)
(* Arena reuse is pure scratch: re-negotiating is bit-identical        *)

let test_negotiate_pair_deterministic () =
  let g = gen_graph 5 in
  let topo = Compact.freeze g in
  let cands = Candidates.enumerate ~min_gain:2 topo in
  Alcotest.(check bool) "have candidates" true (Array.length cands > 0);
  let dist = Pan_numerics.Distribution.uniform (-1.0) 1.0 in
  let truthful = 1.0 /. 12.0 in
  let once i =
    Negotiate.negotiate_pair ~graph:g ~topo ~seed:5 ~epoch:1 ~w:8
      ~max_demands:3 ~truthful ~dist cands.(i)
  in
  for i = 0 to Int.min 4 (Array.length cands - 1) do
    let a = once i and b = once i in
    Alcotest.(check bool)
      (Printf.sprintf "outcome %d bit-identical on arena reuse" i)
      true
      (a.Negotiate.u_x = b.Negotiate.u_x
      && a.Negotiate.u_y = b.Negotiate.u_y
      && (a.Negotiate.pod = b.Negotiate.pod
         || (Float.is_nan a.Negotiate.pod && Float.is_nan b.Negotiate.pod))
      && a.Negotiate.rounds = b.Negotiate.rounds
      && a.Negotiate.signed = b.Negotiate.signed)
  done

(* ------------------------------------------------------------------ *)
(* Candidate enumeration invariants                                    *)

(* The per-row gain oracle: |(providers(via) ∪ peers(via)) \
   customers(side) \ {side}| counted straight off the CSR rows, one
   binary search into [side]'s customer row per element.  The two
   classes are disjoint (a pair is linked in at most one class), so no
   dedup set is needed. *)
let gain_via topo ~side ~via =
  let g = ref 0 in
  let count z =
    if z <> side && not (Compact.mem_customer topo side z) then incr g
  in
  Compact.iter_providers topo via count;
  Compact.iter_peers topo via count;
  !g

let gains topo x y =
  (gain_via topo ~side:x ~via:y, gain_via topo ~side:y ~via:x)

let test_candidates_sound () =
  let g = gen_graph 9 in
  let topo = Compact.freeze g in
  let cands = Candidates.enumerate ~min_gain:2 ~max_candidates:1000 topo in
  Array.iter
    (fun (c : Candidates.t) ->
      if c.Candidates.x >= c.Candidates.y then Alcotest.fail "x >= y";
      if Compact.connected topo c.Candidates.x c.Candidates.y then
        Alcotest.fail "candidate pair already connected";
      let gx, gy = gains topo c.Candidates.x c.Candidates.y in
      Alcotest.(check int) "gain_x" gx c.Candidates.gain_x;
      Alcotest.(check int) "gain_y" gy c.Candidates.gain_y;
      if gx < 2 || gy < 2 then Alcotest.fail "below min_gain";
      (* the cheap CSR count agrees with the bitset path algebra *)
      Alcotest.(check int) "gain_x = |ma_gain|"
        (Bitset.cardinal
           (Path_enum_compact.ma_gain topo c.Candidates.x c.Candidates.y))
        gx;
      Alcotest.(check int) "gain_y = |ma_gain|"
        (Bitset.cardinal
           (Path_enum_compact.ma_gain topo c.Candidates.y c.Candidates.x))
        gy)
    cands;
  (* pool-size independence of the enumeration itself *)
  let par =
    Pool.with_pool ~domains:4 (fun pool ->
        Candidates.enumerate ~pool ~min_gain:2 ~max_candidates:1000 topo)
  in
  Alcotest.(check bool) "enumerate j=1 = j=4" true (cands = par)

(* ------------------------------------------------------------------ *)
(* Nash-Peering qualifier ≡ brute-force coalition oracle               *)

let test_qualifier_oracle () =
  List.iter
    (fun seed ->
      let g = gen_graph ~n_transit:4 ~n_stub:12 seed in
      let topo = Compact.freeze g in
      let cands = Candidates.enumerate ~min_gain:1 ~max_candidates:64 topo in
      let scores =
        Array.map
          (Nash_peering.score_pair ~graph:g ~topo ~seed ~epoch:1
             ~max_demands:3)
          cands
      in
      let v = Nash_peering.qualify scores in
      let o = Nash_peering.qualify_oracle scores in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: verdict count" seed)
        (Array.length o) (Array.length v);
      Array.iteri
        (fun i (a : Nash_peering.verdict) ->
          let b = o.(i) in
          let ctx = Printf.sprintf "seed %d verdict %d" seed i in
          Alcotest.(check bool)
            (ctx ^ ": qualified")
            b.Nash_peering.qualified a.Nash_peering.qualified;
          Alcotest.(check bool)
            (ctx ^ ": share/coalition values bit-identical")
            true
            (a.Nash_peering.share = b.Nash_peering.share
            && a.Nash_peering.best_x = b.Nash_peering.best_x
            && a.Nash_peering.best_y = b.Nash_peering.best_y))
        v;
      (* at least one graph in the sweep must actually discriminate *)
      if seed = 1 then
        Alcotest.(check bool) "qualifier keeps a strict subset somewhere" true
          (Nash_peering.count_qualified v <= Array.length v))
    [ 1; 2; 3; 17 ]

(* ------------------------------------------------------------------ *)
(* Both mode: the Bosco arm is the Bosco run; the Nash arm's first     *)
(* epoch is the Nash_peering run's first epoch (shared snapshot)       *)

let test_both_mode_arms () =
  let g = gen_graph 13 in
  let cfg = config ~seed:13 () in
  let bosco = Market.run cfg g in
  let nash = Market.run ~mechanism:Market.Nash_peering cfg g in
  let both = Market.run ~mechanism:Market.Both cfg g in
  Alcotest.(check bool) "Both splices the Bosco signings" true
    (both.Market.agreements = bosco.Market.agreements);
  Alcotest.(check bool) "Both's epoch stream = Bosco's" true
    (List.map
       (fun (r : Market.epoch_report) ->
         (r.Market.epoch, r.Market.signed, r.Market.welfare))
       both.Market.reports
    = List.map
        (fun (r : Market.epoch_report) ->
          (r.Market.epoch, r.Market.signed, r.Market.welfare))
        bosco.Market.reports);
  List.iter
    (fun (r : Market.epoch_report) ->
      match r.Market.mech with
      | None -> Alcotest.fail "Both-mode epoch without comparison record"
      | Some c ->
          Alcotest.(check int) "bosco arm signed = epoch signed"
            r.Market.signed c.Market.bosco_signed;
          Alcotest.(check bool) "bosco arm welfare = epoch welfare" true
            (c.Market.bosco_welfare = r.Market.welfare);
          Alcotest.(check bool) "nash arm is a subset" true
            (c.Market.nash_signed <= c.Market.cmp_qualified
            && c.Market.cmp_qualified <= r.Market.candidates
            && c.Market.nash_welfare <= c.Market.bosco_welfare))
    both.Market.reports;
  (* first epochs share the pristine snapshot: the counterfactual nash
     arm is bit-identical to the real nash-peering run *)
  match (both.Market.reports, nash.Market.reports) with
  | rb :: _, rn :: _ ->
      let c = Option.get rb.Market.mech in
      Alcotest.(check int) "first-epoch qualified" rn.Market.qualified
        c.Market.cmp_qualified;
      Alcotest.(check int) "first-epoch nash signed" rn.Market.signed
        c.Market.nash_signed;
      Alcotest.(check bool) "first-epoch nash welfare bit-identical" true
        (c.Market.nash_welfare = rn.Market.welfare)
  | _ -> Alcotest.fail "no epochs"

(* ------------------------------------------------------------------ *)
(* compare_candidates: saturating total order (the overflow regression)*)

let cand_gen =
  let open QCheck.Gen in
  let gain =
    oneof
      [
        int_range 0 1_000;
        oneofl [ 0; 1; (max_int / 2) - 1; max_int / 2; max_int - 1; max_int ];
      ]
  in
  map
    (fun ((x, y), (gx, gy)) -> { Candidates.x; y; gain_x = gx; gain_y = gy })
    (pair (pair (int_range 0 50) (int_range 0 50)) (pair gain gain))

(* The intended order, computed without overflow: gain sums in Int64,
   clamped to [max_int] (the saturation point), descending; ties by
   ascending pair.  Agreement with this oracle pins both the ranking and
   the saturation semantics — the pre-fix comparator wraps at
   [max_int + 5] and sorts adversarial candidates last. *)
let exact_compare a b =
  let clamp v =
    if Int64.compare v (Int64.of_int max_int) > 0 then Int64.of_int max_int
    else v
  in
  let s (c : Candidates.t) =
    clamp
      (Int64.add (Int64.of_int c.Candidates.gain_x)
         (Int64.of_int c.Candidates.gain_y))
  in
  match Int64.compare (s b) (s a) with
  | 0 ->
      compare
        (a.Candidates.x, a.Candidates.y)
        (b.Candidates.x, b.Candidates.y)
  | c -> c

let qcheck_compare_candidates =
  QCheck.Test.make ~count:1_000
    ~name:"candidates: compare is a saturating total order (= Int64 oracle)"
    (QCheck.make
       QCheck.Gen.(triple cand_gen cand_gen cand_gen)
       ~print:(fun ((a : Candidates.t), b, c) ->
         let one (d : Candidates.t) =
           Printf.sprintf "{x=%d;y=%d;gx=%d;gy=%d}" d.Candidates.x
             d.Candidates.y d.Candidates.gain_x d.Candidates.gain_y
         in
         String.concat " " [ one a; one b; one c ]))
    (fun (a, b, c) ->
      let sign n = compare n 0 in
      let cmp = Candidates.compare_candidates in
      (* agreement with the overflow-free oracle *)
      sign (cmp a b) = sign (exact_compare a b)
      (* antisymmetry and reflexivity *)
      && sign (cmp a b) = -sign (cmp b a)
      && cmp a a = 0
      (* transitivity across the triple *)
      && (not (cmp a b <= 0 && cmp b c <= 0) || cmp a c <= 0))

(* ------------------------------------------------------------------ *)
(* Per-source top-K + k-way merge ≡ the sort-everything oracle         *)

(* The sort-everything enumeration: every candidate of every source is
   materialized, the lists are concatenated, globally sorted and
   truncated.  Returns the kept prefix and the number enumerated. *)
let enumerate_reference ~min_gain ~max_candidates topo =
  let n = Compact.num_ases topo in
  let candidates_of_source x =
    let seen = Bitset.create ~width:n in
    let acc = ref [] in
    let consider y =
      if y > x && not (Bitset.mem seen y) then begin
        Bitset.unsafe_add seen y;
        if not (Compact.connected topo x y) then begin
          let gx, gy = gains topo x y in
          if gx >= min_gain && gy >= min_gain then
            acc := { Candidates.x; y; gain_x = gx; gain_y = gy } :: !acc
        end
      end
    in
    Compact.iter_neighbors topo x (fun m ->
        Compact.iter_neighbors topo m consider);
    !acc
  in
  let all =
    List.init n candidates_of_source
    |> List.concat
    |> List.sort Candidates.compare_candidates
    |> Array.of_list
  in
  let total = Array.length all in
  (Array.sub all 0 (Int.min max_candidates total), total)

(* Tie-heavy family: [providers] transit ASes in a peering clique, each
   stub multi-homed to two of them.  With three providers every
   stub–stub pair sharing a provider and every stub–foreign-provider
   pair has total gain 4, so long runs of equal sums straddle any K. *)
let tie_graph ~providers ~stubs seed =
  let g = Graph.create () in
  let asn = Asn.of_int in
  for p = 1 to providers do
    Graph.add_as g (asn p)
  done;
  for p = 1 to providers do
    for q = p + 1 to providers do
      Graph.add_peering g (asn p) (asn q)
    done
  done;
  let rng = Random.State.make [| seed |] in
  for s = 1 to stubs do
    let a = Random.State.int rng providers in
    let b = (a + 1 + Random.State.int rng (providers - 1)) mod providers in
    List.iter
      (fun p ->
        Graph.add_provider_customer g ~provider:(asn (1 + p))
          ~customer:(asn (1000 + s)))
      [ a; b ]
  done;
  g

(* [Candidates.enumerate] with its two counters read back. *)
let enumerate_counted ?pool ?retries ~min_gain ~max_candidates topo =
  Pan_obs.Obs.configure ~clock:(Pan_obs.Clock.virtual_ ()) ();
  Fun.protect ~finally:Pan_obs.Obs.disable (fun () ->
      let kept =
        Candidates.enumerate ?pool ?retries ~min_gain ~max_candidates topo
      in
      let m = Pan_obs.Obs.metrics () in
      let c = Pan_obs.Metrics.counter m in
      (kept, c "market.candidates.enumerated", c "market.candidates.kept"))

let qcheck_enumerate_oracle =
  QCheck.Test.make ~count:12
    ~name:
      "candidates: top-K + merge = sort-everything oracle, every K, j=1/j=2, \
       faults+retries"
    QCheck.(
      triple bool (int_range 1 1_000)
        (pair (int_range 1 3) (pair (int_range 3 10) (int_range 10 60))))
    (fun (ties, seed, (min_gain, (transit, stubs))) ->
      let g =
        if ties then tie_graph ~providers:(Int.min transit 4) ~stubs seed
        else gen_graph ~n_transit:transit ~n_stub:stubs seed
      in
      let topo = Compact.freeze g in
      let _, total = enumerate_reference ~min_gain ~max_candidates:0 topo in
      let ks =
        List.sort_uniq compare
          [ 0; 1; 7; Int.max 0 (total - 1); total; total + 5; 4096 ]
      in
      Pool.with_pool ~domains:2 (fun pool ->
          List.for_all
            (fun max_candidates ->
              let expect, _ =
                enumerate_reference ~min_gain ~max_candidates topo
              in
              let agrees (kept, enumerated, n_kept) =
                kept = expect && enumerated = total
                && n_kept = Array.length expect
              in
              let run ?pool ?retries () =
                enumerate_counted ?pool ?retries ~min_gain ~max_candidates topo
              in
              let faulty () =
                Fault.set
                  (Some
                     { Fault.seed; rate = 0.3; delay = 0.0; delay_rate = 0.0 });
                Fun.protect
                  ~finally:(fun () -> Fault.set None)
                  (fun () -> run ~pool ~retries:10 ())
              in
              agrees (run ()) && agrees (run ~pool ()) && agrees (faulty ()))
            ks))

(* Every wedge kind that decides a gain, on a hand-built graph.  x = AS 1
   and y = AS 2 are never linked; the middles of their wedges are:
   - 10, 13: x's customers that are y's providers  (lower gain_x)
   - 11:     x's customer that is y's peer         (lowers gain_x)
   - 20:     x's provider that is y's customer     (lowers gain_y)
   - 21:     x's peer that is y's customer         (lowers gain_y)
   and wedges that must not count:
   - 12:     x's customer that is y's customer (y is its provider)
   - 22:     a shared provider
   - 23:     a shared peer
   - 24:     x's provider that is y's peer
   with 30, 32 (y's providers) and 31 (x's peer) outside any wedge.
   up(y) = {10,13,22,30,32} ∪ {11,23,24} loses {10,11,13} to cust(x):
   gain_x = 8 - 3 = 5.  up(x) = {20,22,24} ∪ {21,23,31} loses {20,21}
   to cust(y): gain_y = 6 - 2 = 4.  The sides differ, so swapped
   counters show. *)
let test_wedge_kinds () =
  let g = Graph.create () in
  let asn = Asn.of_int in
  let pc p c = Graph.add_provider_customer g ~provider:(asn p) ~customer:(asn c)
  and peer a b = Graph.add_peering g (asn a) (asn b) in
  List.iter (fun c -> pc 1 c) [ 10; 11; 12; 13 ];
  List.iter (fun p -> pc p 1) [ 20; 22; 24 ];
  List.iter (peer 1) [ 21; 23; 31 ];
  pc 10 2;
  pc 13 2;
  peer 11 2;
  pc 2 20;
  pc 2 21;
  pc 2 12;
  pc 22 2;
  peer 23 2;
  peer 24 2;
  pc 30 2;
  pc 32 2;
  let topo = Compact.freeze g in
  let x = Compact.index_of_exn topo (asn 1)
  and y = Compact.index_of_exn topo (asn 2) in
  Alcotest.(check (pair int int)) "oracle gains" (5, 4) (gains topo x y);
  Alcotest.(check (pair int int))
    "|ma_gain| both ways" (5, 4)
    ( Bitset.cardinal (Path_enum_compact.ma_gain topo x y),
      Bitset.cardinal (Path_enum_compact.ma_gain topo y x) );
  let _, total = enumerate_reference ~min_gain:1 ~max_candidates:0 topo in
  let expect, _ =
    enumerate_reference ~min_gain:1 ~max_candidates:total topo
  in
  let kept = Candidates.enumerate ~min_gain:1 ~max_candidates:total topo in
  (match
     Array.find_opt
       (fun (c : Candidates.t) -> c.Candidates.x = x && c.Candidates.y = y)
       kept
   with
  | None -> Alcotest.fail "pair (x, y) not enumerated"
  | Some c ->
      Alcotest.(check (pair int int))
        "enumerated gains" (5, 4)
        (c.Candidates.gain_x, c.Candidates.gain_y));
  Alcotest.(check bool) "enumerate = reference at K = total" true
    (kept = expect)

(* ------------------------------------------------------------------ *)
(* CSR econ prefix ≡ the Graph-based oracle, bit for bit               *)

(* Corner cases the oracle saw, so a deterministic case can show the
   property reaches them: a beneficiary without providers
   ([reroute_from = None]), a side offered nothing, and equal degrees on
   both sides of the [max_demands] cut (the tie-break decides which
   destination is kept). *)
type corners = {
  mutable no_provider : int;
  mutable empty_grant : int;
  mutable tie_at_cut : int;
}

let reference_business_of ~seed g x =
  let open Pan_econ in
  let rng =
    Pan_numerics.Rng.create (Hashtbl.hash (seed, Asn.to_int x, "market-biz"))
  in
  let uniform = Pan_numerics.Rng.uniform rng in
  let transit = Pricing.per_usage ~unit_price:(uniform 0.7 1.3) in
  let stub =
    if Pan_numerics.Rng.float rng < 0.4 then Pricing.flat_rate ~fee:20.0
    else Pricing.per_usage ~unit_price:(uniform 1.2 2.5)
  in
  let internal = Cost.linear ~rate:(uniform 0.05 0.7) in
  Business.of_graph ~default_transit:transit ~default_internal:internal
    ~stub_price:stub g x

let reference_baseline_of g x =
  let entries =
    Asn.Set.fold
      (fun y acc ->
        let v =
          2.0 *. sqrt (float_of_int (Graph.degree g x * Graph.degree g y))
        in
        (y, v) :: acc)
      (Graph.neighbors g x) []
  in
  let stub_volume = 4.0 +. float_of_int (Graph.degree g x) in
  Pan_econ.Flows.of_list ((Pan_econ.Flows.stub x, stub_volume) :: entries)

let reference_demands_for ?corners ~rng ~max_demands g ~beneficiary ~transit
    ~granted =
  let providers, peers =
    Asn.Set.partition
      (fun z -> Asn.Set.mem z (Graph.providers g transit))
      granted
  in
  let by_degree set =
    Asn.Set.elements set
    |> List.map (fun z -> (Graph.degree g z, z))
    |> List.sort (fun (d1, z1) (d2, z2) ->
           match compare d2 d1 with 0 -> Asn.compare z1 z2 | c -> c)
    |> List.map snd
  in
  let ranked = by_degree providers @ by_degree peers in
  let dests = List.filteri (fun i _ -> i < max_demands) ranked in
  let providers_of_b = Graph.providers g beneficiary in
  let reroute_from =
    if Asn.Set.is_empty providers_of_b then None
    else Some (Asn.Set.min_elt providers_of_b)
  in
  Option.iter
    (fun c ->
      if Asn.Set.is_empty granted then c.empty_grant <- c.empty_grant + 1;
      if dests <> [] && reroute_from = None then
        c.no_provider <- c.no_provider + 1;
      if max_demands > 0 && max_demands < List.length ranked then begin
        let a = List.nth ranked (max_demands - 1)
        and b = List.nth ranked max_demands in
        if
          Asn.Set.mem a providers = Asn.Set.mem b providers
          && Graph.degree g a = Graph.degree g b
        then c.tie_at_cut <- c.tie_at_cut + 1
      end)
    corners;
  let provider_traffic =
    4.0 *. sqrt (float_of_int (Graph.degree g beneficiary))
  in
  List.map
    (fun z ->
      let share = Pan_numerics.Rng.uniform rng 0.05 0.3 in
      let reroutable =
        if reroute_from = None then 0.0 else provider_traffic *. share
      in
      Pan_econ.Traffic_model.
        {
          beneficiary;
          transit;
          dest = z;
          reroutable;
          reroute_from;
          attracted_max = reroutable *. Pan_numerics.Rng.uniform rng 0.2 0.8;
        })
    dests

let reference_score_best model =
  let open Pan_econ in
  let econ_ws = Econ_workspace.create () in
  let n_d = Model_fast.n_demands model in
  let stride = 2 * n_d in
  let levels = Negotiate.forecast_levels in
  let m = Array.length levels in
  let demands = Traffic_model.demands (Model_fast.scenario model) in
  let vectors = Array.make (Int.max 1 (m * stride)) 0.0 in
  List.iteri
    (fun d (dem : Traffic_model.segment_demand) ->
      Array.iteri
        (fun l level ->
          let base = (l * stride) + (2 * d) in
          vectors.(base) <- level *. dem.Traffic_model.reroutable;
          vectors.(base + 1) <- level *. dem.Traffic_model.attracted_max)
        levels)
    demands;
  let out_x, out_y = Econ_workspace.batch_scratch econ_ws m in
  Model_fast.utilities_batch ~workspace:econ_ws model ~vectors ~m ~out_x
    ~out_y;
  let best = ref 0 in
  for i = 1 to m - 1 do
    if
      Nash.surplus ~u_x:out_x.(i) ~u_y:out_y.(i)
      > Nash.surplus ~u_x:out_x.(!best) ~u_y:out_y.(!best)
    then best := i
  done;
  (out_x.(!best), out_y.(!best))

(* The econ-scoring prefix on the [Asn.Set]-based [Graph.t] mirror
   instead of the CSR: grants and demand ranking by set operations,
   degrees by set cardinals.  [topo] only maps the candidate's indices
   to ASNs. *)
let score_pair_reference ?corners ~graph ~topo ~seed ~epoch ~max_demands
    (cand : Candidates.t) =
  let open Pan_econ in
  let x = Compact.id topo cand.Candidates.x
  and y = Compact.id topo cand.Candidates.y in
  let rng =
    Pan_numerics.Rng.create
      (Hashtbl.hash (seed, epoch, Asn.to_int x, Asn.to_int y, "market-pair"))
  in
  let grant_for ~side ~via =
    let keep z =
      (not (Asn.equal z side))
      && not (Asn.Set.mem z (Graph.customers graph side))
    in
    {
      Agreement.providers = Asn.Set.filter keep (Graph.providers graph via);
      peers = Asn.Set.filter keep (Graph.peers graph via);
      customers = Asn.Set.empty;
    }
  in
  let agreement =
    Agreement.make_exn graph ~x ~y
      ~x_grant:(grant_for ~side:y ~via:x)
      ~y_grant:(grant_for ~side:x ~via:y)
  in
  let demands =
    reference_demands_for ?corners ~rng ~max_demands graph ~beneficiary:x
      ~transit:y
      ~granted:(Agreement.accessible agreement ~to_:x)
    @ reference_demands_for ?corners ~rng ~max_demands graph ~beneficiary:y
        ~transit:x
        ~granted:(Agreement.accessible agreement ~to_:y)
  in
  let scenario =
    Traffic_model.make_scenario_exn ~graph ~agreement
      ~businesses:
        [
          (x, reference_business_of ~seed graph x);
          (y, reference_business_of ~seed graph y);
        ]
      ~baseline:
        [
          (x, reference_baseline_of graph x); (y, reference_baseline_of graph y);
        ]
      ~demands
  in
  reference_score_best (Model_fast.compile scenario)

(* Three epochs on one graph.  Each scores up to 60 random unconnected
   pairs at every [max_demands] with both prefixes and demands equal bits,
   then signs the top enumerated candidates the way [Market.run] does —
   [Graph.add_peering] on the mirror, [Link_up] spliced into the engine
   — so the later epochs score on a spliced CSR that must still mirror
   [graph]. *)
let prefix_matches_reference ?corners ~seed g =
  let module Engine = Pan_service.Engine in
  let graph = Graph.copy g in
  let engine = Engine.of_graph ~mode:Engine.Incremental g in
  let rng = Random.State.make [| seed |] in
  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  let ok = ref true in
  for epoch = 1 to 3 do
    let topo = Engine.topology engine in
    let n = Compact.num_ases topo in
    (* a random neighbor of [a], or [a] itself if it has none *)
    let hop a =
      let k = Random.State.int rng (Int.max 1 (Compact.degree topo a)) in
      let pick = ref a and i = ref 0 in
      Compact.iter_neighbors topo a (fun z ->
          if !i = k then pick := z;
          incr i);
      !pick
    in
    for _ = 1 to 60 do
      (* half uniform pairs, half two-hop pairs like the enumerated ones *)
      let a = Random.State.int rng n in
      let b =
        if Random.State.bool rng then hop (hop a) else Random.State.int rng n
      in
      if a <> b && not (Compact.connected topo a b) then
        let cand =
          { Candidates.x = Int.min a b; y = Int.max a b; gain_x = 0; gain_y = 0 }
        in
        List.iter
          (fun max_demands ->
            let u_x, u_y =
              Negotiate.score_pair ~graph ~topo ~seed ~epoch ~max_demands cand
            and r_x, r_y =
              score_pair_reference ?corners ~graph ~topo ~seed ~epoch
                ~max_demands cand
            in
            if not (same u_x r_x && same u_y r_y) then ok := false)
          [ 0; 1; 3; 8 ]
    done;
    let signed = Candidates.enumerate ~min_gain:1 ~max_candidates:4 topo in
    ignore
      (Engine.apply_batch engine
         (Array.to_list
            (Array.map
               (fun (c : Candidates.t) ->
                 Engine.Link_up (Engine.Peer (c.Candidates.x, c.Candidates.y)))
               signed)));
    Array.iter
      (fun (c : Candidates.t) ->
        Graph.add_peering graph
          (Compact.id topo c.Candidates.x)
          (Compact.id topo c.Candidates.y))
      signed
  done;
  !ok

let qcheck_score_oracle =
  QCheck.Test.make ~count:10
    ~name:
      "negotiate: CSR scoring prefix = Graph-based oracle, bit-exact, 3 \
       spliced epochs, max_demands 0/1/3/8"
    QCheck.(
      triple (int_range 0 2) (int_range 1 1_000)
        (pair (int_range 3 8) (int_range 10 40)))
    (fun (family, seed, (transit, stubs)) ->
      let g =
        match family with
        | 0 -> gen_graph ~n_transit:transit ~n_stub:stubs seed
        | 1 -> tie_graph ~providers:(Int.min transit 4) ~stubs seed
        | _ -> Gen.fig1 ()
      in
      prefix_matches_reference ~seed g)

(* The property's inputs reach every corner case on fixed graphs. *)
let test_score_oracle_corners () =
  let corners = { no_provider = 0; empty_grant = 0; tie_at_cut = 0 } in
  Alcotest.(check bool) "random graph" true
    (prefix_matches_reference ~corners ~seed:1 (gen_graph 1));
  Alcotest.(check bool) "tie-heavy graph" true
    (prefix_matches_reference ~corners ~seed:1
       (tie_graph ~providers:3 ~stubs:30 1));
  (* stub G's only provider F is a customer of C: G offers C nothing *)
  Alcotest.(check bool) "paper Fig. 1 graph" true
    (prefix_matches_reference ~corners ~seed:1 (Gen.fig1 ()));
  Alcotest.(check bool) "a beneficiary without providers" true
    (corners.no_provider > 0);
  Alcotest.(check bool) "a side offered nothing" true (corners.empty_grant > 0);
  Alcotest.(check bool) "equal degrees across the max_demands cut" true
    (corners.tie_at_cut > 0)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_jobs_equivalence;
    QCheck_alcotest.to_alcotest qcheck_fault_equivalence;
    QCheck_alcotest.to_alcotest qcheck_compare_candidates;
    QCheck_alcotest.to_alcotest qcheck_enumerate_oracle;
    QCheck_alcotest.to_alcotest qcheck_score_oracle;
    Alcotest.test_case "delta oracle across epochs" `Quick test_delta_oracle;
    Alcotest.test_case "agreements distinct across epochs" `Quick
      test_agreements_distinct;
    Alcotest.test_case "negotiate_pair deterministic on arena reuse" `Quick
      test_negotiate_pair_deterministic;
    Alcotest.test_case "candidate enumeration sound" `Quick
      test_candidates_sound;
    Alcotest.test_case "every wedge kind decides its gain" `Quick
      test_wedge_kinds;
    Alcotest.test_case "nash-peering qualifier = coalition oracle" `Quick
      test_qualifier_oracle;
    Alcotest.test_case "both-mode arms consistent" `Quick test_both_mode_arms;
    Alcotest.test_case "scoring oracle reaches its corner cases" `Quick
      test_score_oracle_corners;
  ]
