open Pan_topology
module Obs = Pan_obs.Obs

type t = { x : int; y : int; gain_x : int; gain_y : int }

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

(* Per-domain scratch, the same pattern as [Negotiate]'s arenas: two
   generation-stamped marks over the AS indices plus two wedge counters
   and the list of the source's distinct 2-hop nodes.  A source bumps
   [gen] once and stamps its neighbours; an entry equals [gen] iff it
   was marked for the current source, so nothing is ever cleared — a
   node's counters are zeroed when it is first stamped [seen].  The
   scratch is pure: which domain enumerates which source cannot change
   a result. *)
type scratch = {
  mutable gen : int;
  mutable seen : int array;  (** 2-hop nodes already reached *)
  mutable nbr : int array;  (** the source's neighbours *)
  mutable lost_x : int array;  (** |up(y) ∩ cust(x)| per reached [y] *)
  mutable lost_y : int array;  (** |up(x) ∩ cust(y)| per reached [y] *)
  mutable reached : int array;  (** the distinct reached [y]s *)
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        gen = 0;
        seen = [||];
        nbr = [||];
        lost_x = [||];
        lost_y = [||];
        reached = [||];
      })

let scratch n =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.seen < n then begin
    s.seen <- Array.make n 0;
    s.nbr <- Array.make n 0;
    s.lost_x <- Array.make n 0;
    s.lost_y <- Array.make n 0;
    s.reached <- Array.make n 0
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
   candidates it saw.  With [up] = providers ∪ peers and [x], [y]
   unconnected ([x ∉ up(y)], [y ∉ up(x)]):

     gain_x = |up(y)| - |up(y) ∩ cust(x)|
     gain_y = |up(x)| - |up(x) ∩ cust(y)|

   and each element [m] of an intersection is the middle of a wedge
   x–m–y: [m ∈ cust(x)] with [y ∈ cust(m) ∪ peers(m)] for [gain_x],
   [m ∈ prov(x) ∪ peers(x)] with [y ∈ prov(m)] for [gain_y].  A pair is
   linked in at most one class, so the 2-hop walk (one class of [m]'s
   rows at a time) counts every [m] exactly once, and each reached [y]
   is then scored in O(1) from its row lengths.  The kept candidates sit
   in a heap whose root is the worst of them. *)
let top_of_source topo ~min_gain ~k x =
  let s = scratch (Compact.num_ases topo) in
  let gen = s.gen and seen = s.seen and nbr = s.nbr in
  let lost_x = s.lost_x and lost_y = s.lost_y and reached = s.reached in
  Compact.iter_neighbors topo x (fun m -> nbr.(m) <- gen);
  let n_reached = ref 0 in
  let reach y =
    let candidate = y > x && nbr.(y) <> gen in
    if candidate && seen.(y) <> gen then begin
      seen.(y) <- gen;
      lost_x.(y) <- 0;
      lost_y.(y) <- 0;
      reached.(!n_reached) <- y;
      incr n_reached
    end;
    candidate
  in
  let touch y = ignore (reach y) in
  let bump_x y = if reach y then lost_x.(y) <- lost_x.(y) + 1 in
  let bump_y y = if reach y then lost_y.(y) <- lost_y.(y) + 1 in
  Compact.iter_customers topo x (fun m ->
      Compact.iter_providers topo m touch;
      Compact.iter_peers topo m bump_x;
      Compact.iter_customers topo m bump_x);
  let via_up m =
    Compact.iter_providers topo m bump_y;
    Compact.iter_peers topo m touch;
    Compact.iter_customers topo m touch
  in
  Compact.iter_providers topo x via_up;
  Compact.iter_peers topo x via_up;
  let up_x = Compact.providers_count topo x + Compact.peers_count topo x in
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
  for i = 0 to !n_reached - 1 do
    let y = reached.(i) in
    let gx =
      Compact.providers_count topo y + Compact.peers_count topo y - lost_x.(y)
    and gy = up_x - lost_y.(y) in
    if gx >= min_gain && gy >= min_gain then begin
      incr found;
      keep { x; y; gain_x = gx; gain_y = gy }
    end
  done;
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
