(* Skewed query streams for the serve-zipf workload.

   The churn items come from [Stream.generate] unchanged, so every event
   stays applicable in order; only the query items are redrawn.  Both
   endpoints are Zipf(s) ranks over a permutation of the ASes, so a few
   (src, dst) pairs recur often — the working-set re-selection a real
   client population shows — and a share of the queries become intent
   queries.  The base stream (churn events, their positions, the
   policies) and the permutation (which ASes are popular) come from
   [shape], the endpoint and intent draws from [rng].  With a fixed
   [shape], streams of different seeds apply the same events and share
   the same hot ASes, so they cost about the same to serve. *)

open Pan_numerics
open Pan_topology
module Stream = Pan_service.Stream

(* Cumulative Zipf weights over ranks 1..n. *)
let cdf ~s n =
  let c = Array.make n 0.0 in
  let acc = ref 0.0 in
  for r = 0 to n - 1 do
    acc := !acc +. (1.0 /. (float_of_int (r + 1) ** s));
    c.(r) <- !acc
  done;
  c

(* Smallest rank whose cumulative weight reaches [u * total]. *)
let draw rng c =
  let n = Array.length c in
  let target = Rng.float rng *. c.(n - 1) in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if c.(mid) < target then lo := mid + 1 else hi := mid
  done;
  !lo

let generate ~rng ~shape ~topo ~requests ~churn ~s ~intent_share ~intent =
  let n = Compact.num_ases topo in
  let base = Stream.generate ~rng:shape ~topo ~requests ~churn () in
  let perm = Array.init n (Compact.id topo) in
  Rng.shuffle shape perm;
  let c = cdf ~s n in
  let redraw item =
    match item with
    | Stream.Query { policy; _ } ->
        let src = draw rng c in
        let rec other () =
          let d = draw rng c in
          if d = src then other () else d
        in
        let src = perm.(src) and dst = perm.(other ()) in
        if Rng.float rng < intent_share then
          Stream.Intent_query { src; dst; intent }
        else Stream.Query { src; dst; policy }
    | it -> it
  in
  (* explicit left-to-right fold: [redraw] advances the rng *)
  List.rev (List.fold_left (fun acc it -> redraw it :: acc) [] base)

(* Share of query items whose key (endpoints and policy or intent) was
   already asked earlier in the stream — the property any memo layer
   relies on. *)
let repeat_share (stream : Stream.t) =
  let seen = Hashtbl.create 4096 in
  let queries = ref 0 and repeats = ref 0 in
  let see key =
    incr queries;
    if Hashtbl.mem seen key then incr repeats else Hashtbl.add seen key ()
  in
  List.iter
    (function
      | Stream.Query { src; dst; policy } ->
          see (Asn.to_int src, Asn.to_int dst, Stream.policy_label policy)
      | Stream.Intent_query { src; dst; intent } ->
          see
            ( Asn.to_int src,
              Asn.to_int dst,
              "intent " ^ Pan_intent.Intent.to_string intent )
      | Stream.Up _ | Stream.Down _ -> ())
    stream;
  Measure.ratio_i !repeats !queries
