(* The benchmark's own checks on small inputs: the Zipf stream generator
   is deterministic per seed and its churn replays under the re-freeze
   oracle, and both replicas reproduce the program they time. *)

open Pan_numerics
open Pan_topology
module Stream = Pan_service.Stream
module Serve = Pan_service.Serve
module Engine = Pan_service.Engine
module M = Pan_market.Market

let failures = ref 0

let check name ok =
  Printf.printf "%s: %s\n%!" name (if ok then "ok" else "FAILED");
  if not ok then incr failures

let churn_items =
  List.filter (function Stream.Up _ | Stream.Down _ -> true | _ -> false)

let test_zipf () =
  let spec = Serve_bench.small_zipf in
  let topo = Compact.freeze (Serve_bench.graph spec) in
  let gen seed = Serve_bench.stream spec ~seed topo in
  let a = gen 1 and b = gen 1 and c = gen 2 in
  check "zipf: same seed, same stream"
    (String.equal (Stream.to_string a) (Stream.to_string b));
  check "zipf: other seed, other stream"
    (not (String.equal (Stream.to_string a) (Stream.to_string c)));
  let base =
    Stream.generate ~rng:(Rng.create Serve_bench.topology_seed) ~topo
      ~requests:spec.Serve_bench.requests ~churn:spec.Serve_bench.churn ()
  in
  check "zipf: churn items are Stream.generate's, for every seed"
    (Stream.to_string (churn_items a) = Stream.to_string (churn_items base)
    && Stream.to_string (churn_items c) = Stream.to_string (churn_items base));
  check "zipf: has churn and intent queries"
    (churn_items a <> []
    && List.exists (function Stream.Intent_query _ -> true | _ -> false) a);
  check "zipf: repeats more than uniform"
    (Zipf_stream.repeat_share a
    > Zipf_stream.repeat_share
        (Serve_bench.stream Serve_bench.small_uniform ~seed:1 topo));
  check "zipf: churn replays under the re-freeze oracle"
    (match Serve.run ~oracle:true ~mode:Engine.Incremental ~topo a with
    | _ -> true
    | exception _ -> false)

let test_serve_replica () =
  List.iter
    (fun (label, spec) ->
      let topo = Compact.freeze (Serve_bench.graph spec) in
      let items = Serve_bench.stream spec ~seed:5 topo in
      let o = Serve.run ~mode:Engine.Incremental ~topo items in
      let same (fp, stats, _) =
        String.equal fp o.Serve.fingerprint
        && Serve_bench.stats_line stats = Serve_bench.stats_line o.Serve.stats
      in
      check (label ^ ": closed-loop replica = Serve.run")
        (same (Serve_bench.replica ~topo items));
      check (label ^ ": prefilling replica = Serve.run")
        (Pan_runner.Pool.with_pool ~domains:(min 2 (Domain.recommended_domain_count ())) (fun pool ->
             same (Serve_bench.replica ~pool ~topo items))))
    [ ("serve-uniform", Serve_bench.small_uniform); ("serve-zipf", Serve_bench.small_zipf) ]

let test_market_replica () =
  let spec = Market_bench.small in
  let g = Market_bench.graph spec in
  let config = Market_bench.config spec in
  let expected = Market_bench.summary (M.run config g) in
  let closed, tr = Market_bench.replica ~mode:`Closed_loop config g in
  check "market: closed-loop replica = Market.run"
    (String.equal expected (Market_bench.summary closed));
  check "market: replica signed something" (tr.Market_bench.event_s <> []);
  let epoch_cands = List.map (fun st -> st.Market_bench.e_cands) tr.Market_bench.states in
  check "market: replayed candidates = Market.run"
    (String.equal expected
       (Market_bench.summary
          (fst (Market_bench.replica ~epoch_cands ~mode:`Closed_loop config g))));
  check "market: traced replica = Market.run"
    (Pan_runner.Pool.with_pool ~domains:(min 2 (Domain.recommended_domain_count ())) (fun pool ->
         String.equal expected
           (Market_bench.summary
              (fst (Market_bench.replica ~pool ~mode:`Traced config g)))))

let () =
  test_zipf ();
  test_serve_replica ();
  test_market_replica ();
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
