(* Decoder probe: every decoder of untrusted bytes — topology snapshots,
   CAIDA as-rel2 text, service streams, intent specs, fault specs and
   BENCH snapshots — either accepts mutated input or rejects it the way
   its interface documents ([Error _], [Invalid_argument _], or
   [Caida.Parse_error _]).  Any other exception escaping a decoder is a
   crash waiting for a corrupt file. *)

open Pan_numerics
open Pan_topology

(* [decode] raises [Rejected] for a documented [Error _]; [documented]
   accepts the exceptions the decoder's .mli names. *)
exception Rejected

type decoder = {
  name : string;
  valid : string list;
  decode : string -> unit;
  documented : exn -> bool;
}

let of_result = function Ok _ -> () | Error _ -> raise Rejected
let invalid_arg_only = function Invalid_argument _ -> true | _ -> false
let none _ = false

let decoders =
  let g = Gen.fig1 () in
  let c = Compact.freeze g in
  let geo = Geo.of_compact ~seed:9 c in
  let bandwidth = Bandwidth.of_compact ~coefficient:2.5 c in
  let intent = Pan_intent.Intent.parse_exn "metric=nlatency+bandwidth; k=4" in
  let stream intent =
    Pan_service.Stream.to_string
      (Pan_service.Stream.generate ?intent ~rng:(Rng.create 5) ~topo:c
         ~requests:12 ~churn:0.25 ())
  in
  let bench =
    Pan_obs.Bench_snap.make ~part:"probe" ~wall_s:1.5 ~throughput:120.0
      ~speedup:2.0
      ~fingerprint:(Pan_obs.Bench_snap.fingerprint_of_string "probe")
      ~jobs:2
      ~meta:[ ("scenarios", "24") ]
      ()
  in
  [
    {
      name = "Snapshot.of_string";
      valid = [ Snapshot.to_string c; Snapshot.to_string ~geo ~bandwidth c ];
      decode = (fun s -> ignore (Snapshot.of_string s));
      documented = invalid_arg_only;
    };
    {
      name = "Caida.of_string";
      valid = [ Caida.to_string g ];
      decode = (fun s -> ignore (Caida.of_string s));
      documented =
        (function
        | Caida.Parse_error _ | Invalid_argument _ -> true | _ -> false);
    };
    {
      name = "Stream.parse";
      valid = [ stream None; stream (Some intent) ];
      decode = (fun s -> ignore (Pan_service.Stream.parse s));
      documented = invalid_arg_only;
    };
    {
      name = "Intent.parse";
      valid =
        [
          Pan_intent.Intent.to_string intent;
          "metric=2*nlatency; k=8; exclude-as=AS3,AS7; require=encrypted";
        ];
      decode = (fun s -> of_result (Pan_intent.Intent.parse s));
      documented = none;
    };
    {
      name = "Fault.parse";
      valid =
        [ "rate=0.2,seed=7"; "rate=0.1,seed=3,delay=0.01,delay-rate=0.5" ];
      decode = (fun s -> of_result (Pan_runner.Fault.parse s));
      documented = none;
    };
    {
      name = "Bench_snap.of_string";
      valid = [ Pan_obs.Bench_snap.to_json bench ];
      decode = (fun s -> of_result (Pan_obs.Bench_snap.of_string s));
      documented = none;
    };
  ]

(* One mutation of [s]: a byte flip, a truncation, or a splice of a
   prefix of [s] onto a suffix of [other]. *)
let mutate rng s other =
  let n = String.length s in
  match Rng.int rng 3 with
  | 0 when n > 0 ->
      let b = Bytes.of_string s in
      let i = Rng.int rng n in
      Bytes.set b i
        (Char.chr (Char.code (Bytes.get b i) lxor (1 + Rng.int rng 255)));
      Bytes.to_string b
  | 1 -> String.sub s 0 (Rng.int rng (n + 1))
  | _ ->
      let m = String.length other in
      let i = Rng.int rng (n + 1) and j = Rng.int rng (m + 1) in
      String.sub s 0 i ^ String.sub other j (m - j)

let qcheck_decoders_reject_cleanly =
  QCheck.Test.make ~count:1800
    ~name:"mutated bytes: decoders reject only as documented"
    QCheck.(pair (int_bound (List.length decoders - 1)) (int_range 1 1_000_000))
    (fun (k, seed) ->
      let d = List.nth decoders k in
      let rng = Rng.create seed in
      let pick () = List.nth d.valid (Rng.int rng (List.length d.valid)) in
      let input = mutate rng (pick ()) (pick ()) in
      match d.decode input with
      | () | (exception Rejected) -> true
      | exception e when d.documented e -> true
      | exception e ->
          QCheck.Test.fail_reportf "%s raised %s on %S" d.name
            (Printexc.to_string e) input)

let test_valid_encodings_accepted () =
  List.iter
    (fun d ->
      List.iter
        (fun s ->
          try d.decode s
          with e ->
            Alcotest.failf "%s rejected a valid encoding: %s" d.name
              (Printexc.to_string e))
        d.valid)
    decoders

let suite =
  [
    Alcotest.test_case "valid encodings decode" `Quick
      test_valid_encodings_accepted;
    QCheck_alcotest.to_alcotest ~speed_level:`Quick
      qcheck_decoders_reject_cleanly;
  ]
