open Pan_topology
module Obs = Pan_obs.Obs

type t = { x : int; y : int; gain_x : int; gain_y : int }

(* |(providers(via) ∪ peers(via)) \ customers(side) \ {side}| counted
   straight off the CSR rows: the two classes are disjoint (a pair is
   linked in at most one class), so no dedup set is needed, and customer
   membership is a binary search per element — no bitset allocation on
   the enumeration hot path. *)
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

(* Total gain descending, then (x, y) ascending: a total order, so the
   top-K (and the truncation under it) is deterministic.  The ranking
   sum saturates: adversarial gain counts near [max_int] would wrap the
   unboxed addition, flip the comparison sign, and break transitivity —
   undefined heap behavior and a nondeterministic truncation.  Saturated
   ties fall back to the pair order, which keeps the order total. *)
let sat_add a b =
  let s = a + b in
  if a >= 0 && b >= 0 && s < 0 then max_int
  else if a < 0 && b < 0 && s >= 0 then min_int
  else s

let total_gain c = sat_add c.gain_x c.gain_y

let compare_candidates a b =
  match Int.compare (total_gain b) (total_gain a) with
  | 0 -> ( match Int.compare a.x b.x with 0 -> Int.compare a.y b.y | c -> c)
  | c -> c

(* Per-domain scratch, the same pattern as [Negotiate]'s arenas: three
   generation-stamped marks over the AS indices.  A source bumps [gen]
   once and stamps its neighbours and customers; an entry equals [gen]
   iff it was marked for the current source, so nothing is ever
   cleared.  The marks are pure scratch: which domain enumerates which
   source cannot change a result. *)
type scratch = {
  mutable gen : int;
  mutable seen : int array;  (** 2-hop nodes already considered *)
  mutable nbr : int array;  (** the source's neighbours *)
  mutable cust : int array;  (** the source's customers *)
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { gen = 0; seen = [||]; nbr = [||]; cust = [||] })

let scratch n =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.seen < n then begin
    s.seen <- Array.make n 0;
    s.nbr <- Array.make n 0;
    s.cust <- Array.make n 0
  end;
  s.gen <- s.gen + 1;
  s

(* Binary heap over [h.(0 .. size-1)]: [above a b] iff [a] belongs
   nearer the root than [b]. *)
let rec sift_up above h i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if above h.(i) h.(p) then begin
      let t = h.(i) in
      h.(i) <- h.(p);
      h.(p) <- t;
      sift_up above h p
    end
  end

let rec sift_down above h size i =
  let l = (2 * i) + 1 in
  if l < size then begin
    let r = l + 1 in
    let c = if r < size && above h.(r) h.(l) then r else l in
    if above h.(c) h.(i) then begin
      let t = h.(i) in
      h.(i) <- h.(c);
      h.(c) <- t;
      sift_down above h size c
    end
  end

let worse a b = compare_candidates a b > 0

(* Source [x]'s best [k] candidates, sorted, and the number of
   candidates it saw.  The kept ones sit in a heap whose root is the
   worst of them.  [connected x y] and [x]'s customer tests are
   stamp reads; [y]'s side still binary-searches [y]'s customer row. *)
let top_of_source topo ~min_gain ~k x =
  let s = scratch (Compact.num_ases topo) in
  let gen = s.gen and seen = s.seen and nbr = s.nbr and cust = s.cust in
  Compact.iter_neighbors topo x (fun m -> nbr.(m) <- gen);
  Compact.iter_customers topo x (fun c -> cust.(c) <- gen);
  let gx = ref 0 in
  let count_x z = if z <> x && cust.(z) <> gen then incr gx in
  let heap = ref [||] and size = ref 0 and found = ref 0 in
  let keep c =
    if !size < k then begin
      if !size = Array.length !heap then begin
        let grown = Array.make (Int.min k (Int.max 16 (2 * !size))) c in
        Array.blit !heap 0 grown 0 !size;
        heap := grown
      end;
      !heap.(!size) <- c;
      sift_up worse !heap !size;
      incr size
    end
    else if k > 0 && compare_candidates c !heap.(0) < 0 then begin
      !heap.(0) <- c;
      sift_down worse !heap !size 0
    end
  in
  let consider y =
    if y > x && seen.(y) <> gen then begin
      seen.(y) <- gen;
      if nbr.(y) <> gen then begin
        gx := 0;
        Compact.iter_providers topo y count_x;
        Compact.iter_peers topo y count_x;
        if !gx >= min_gain then begin
          let gy = gain_via topo ~side:y ~via:x in
          if gy >= min_gain then begin
            incr found;
            keep { x; y; gain_x = !gx; gain_y = gy }
          end
        end
      end
    end
  in
  Compact.iter_neighbors topo x (fun m ->
      Compact.iter_neighbors topo m consider);
  let run = Array.sub !heap 0 !size in
  Array.sort compare_candidates run;
  (!found, run)

(* K-way merge of sorted runs, stopping after [k]: a min-heap of run
   indices keyed by each run's head. *)
let merge runs k =
  let pos = Array.make (Array.length runs) 0 in
  let head r = runs.(r).(pos.(r)) in
  let before r s = compare_candidates (head r) (head s) < 0 in
  let h =
    List.init (Array.length runs) Fun.id
    |> List.filter (fun r -> Array.length runs.(r) > 0)
    |> Array.of_list
  in
  let size = ref (Array.length h) in
  for i = (!size / 2) - 1 downto 0 do
    sift_down before h !size i
  done;
  let total = Array.fold_left (fun acc r -> acc + Array.length r) 0 runs in
  Array.init (Int.min k total) (fun _ ->
      let r = h.(0) in
      let c = head r in
      pos.(r) <- pos.(r) + 1;
      if pos.(r) = Array.length runs.(r) then begin
        decr size;
        h.(0) <- h.(!size)
      end;
      sift_down before h !size 0;
      c)

let enumerate ?pool ?retries ?deadline ?(min_gain = 1) ?(max_candidates = 4096)
    topo =
  if min_gain < 1 then invalid_arg "Candidates.enumerate: min_gain < 1";
  if max_candidates < 0 then
    invalid_arg "Candidates.enumerate: max_candidates < 0";
  Obs.with_span "market/enumerate" @@ fun () ->
  let per_src =
    Pan_runner.Task.map ?pool ?retries ?deadline ~n:(Compact.num_ases topo)
      ~f:(top_of_source topo ~min_gain ~k:max_candidates)
      ()
  in
  let kept = merge (Array.map snd per_src) max_candidates in
  Obs.incr
    ~by:(Array.fold_left (fun acc (c, _) -> acc + c) 0 per_src)
    "market.candidates.enumerated";
  Obs.incr ~by:(Array.length kept) "market.candidates.kept";
  kept
