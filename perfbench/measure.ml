(* Timing, statistics, metric emission and correctness gates shared by
   the workloads. *)

(* Monotonic nanosecond clock: per-query times are a few microseconds,
   below the resolution of [Unix.gettimeofday]. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Every timed repetition starts from a collected heap, so one
   repetition does not pay for the garbage the previous one left. *)
let timed f =
  Gc.full_major ();
  time f

let sum = List.fold_left ( +. ) 0.0

let mean = function
  | [] -> 0.0
  | xs -> sum xs /. float_of_int (List.length xs)

let median = function
  | [] -> Float.nan
  | xs -> Pan_numerics.Stats.median (Array.of_list xs)

let percentile samples p =
  if Array.length samples = 0 then Float.nan
  else Pan_numerics.Stats.percentile samples p

(* A statistic of each closed-loop pass, then the median over passes:
   one pass run during a slow spell of the host moves it less than it
   moves the statistic of the pooled samples. *)
let pass_percentile passes p =
  median (List.map (fun samples -> percentile (Array.of_list samples) p) passes)

let pass_mean passes = median (List.map mean passes)

(* ------------------------------------------------------------------ *)
(* Host speed.  The same work runs up to ~40% slower for minutes at a
   time on a shared host.  A fixed probe -- register arithmetic plus a
   strided walk over 8 MB, allocating nothing, so the program's heap
   does not affect it -- is timed several times in every repetition, and
   [host_factor] is the run's median probe time over [probe_ref_s],
   about the probe's median on the 2-core host the benchmark was tuned
   on. *)

let probe_ref_s = 0.025
let probe_array = Array.make 1_048_576 0
let probes : float list ref = ref []

let probe () =
  let a = probe_array in
  let t0 = now () in
  let r = ref 0 in
  for i = 1 to 6_000_000 do
    r := (!r lxor (i * 7)) + (!r lsr 3)
  done;
  for i = 0 to 1_499_999 do
    let j = (i * 4099) land 1_048_575 in
    r := !r + Array.unsafe_get a j;
    Array.unsafe_set a j (!r land 1023)
  done;
  ignore (Sys.opaque_identity !r);
  probes := (now () -. t0) :: !probes

let host_factor () = median !probes /. probe_ref_s

let ratio a b = if b = 0.0 then 0.0 else a /. b
let ratio_i a b = ratio (float_of_int a) (float_of_int b)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let metrics : (string * float * string) list ref = ref []
let emit name unit_ value = metrics := (name, value, unit_) :: !metrics

let emitted () = List.rev !metrics

(* The end-to-end metrics, scaled to the reference host speed: times
   divided by [host_factor], the rate multiplied by it.  The raw values
   are printed alongside. *)
let emit_e2e ~setup ~rate ~op_mean ~op_p99 ~event_p50 =
  let f = host_factor () in
  Printf.printf
    "host factor %.4f (median of %d probes); unscaled: setup_s %.6f \
     ops_per_s %.3f op_mean_us %.3f op_p99_us %.3f event_p50_us %.3f\n%!"
    f (List.length !probes) setup rate (op_mean *. 1e6) (op_p99 *. 1e6)
    (event_p50 *. 1e6);
  emit "setup_s" "s" (setup /. f);
  emit "ops_per_s" "1/s" (rate *. f);
  emit "op_mean_us" "us" (op_mean *. 1e6 /. f);
  emit "op_p99_us" "us" (op_p99 *. 1e6 /. f);
  emit "event_p50_us" "us" (event_p50 *. 1e6 /. f)

(* ------------------------------------------------------------------ *)
(* Gates: every check counts as one attempted operation, every failed
   check as one failed operation, and any failure makes the process
   exit non-zero.  [tamper] names a gate whose input is corrupted on
   purpose, so the tests can show that each gate is able to fail. *)

let attempted = ref 0
let failed = ref 0
let tamper : string option ref = ref None
let ops n = attempted := !attempted + n

let gate name ok =
  let ok = ok && !tamper <> Some name in
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.printf "gate %s: FAILED\n%!" name
  end

let gate_equal name expected actual =
  let actual = if !tamper = Some name then actual ^ "~" else actual in
  incr attempted;
  if not (String.equal expected actual) then begin
    incr failed;
    Printf.printf "gate %s: FAILED (expected %s, got %s)\n%!" name expected
      actual
  end

(* Each timed repetition gets a pool of its own. *)
let with_fresh_pool ~jobs f =
  let pool = Pan_runner.Pool.create ~domains:jobs in
  Fun.protect ~finally:(fun () -> Pan_runner.Pool.shutdown pool) (fun () -> f pool)

(* Run [f] once and count an exception as a failed operation. *)
let guarded name f =
  match f () with
  | r -> Some r
  | exception e ->
      incr attempted;
      incr failed;
      Printf.printf "gate %s: FAILED (%s)\n%!" name (Printexc.to_string e);
      None

(* Repeat [step] until [seconds] have elapsed, at least [min_reps]
   times. *)
let repeat_for ~seconds ?(min_reps = 1) step =
  let t0 = now () in
  let rec go i =
    if i < min_reps || now () -. t0 < seconds then begin
      step ();
      go (i + 1)
    end
  in
  go 0

