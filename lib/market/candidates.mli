(** MA candidate enumeration over the frozen core.

    A marketplace epoch starts from the current {!Pan_topology.Compact}
    view and asks: which {e unconnected} AS pairs would gain new
    destinations from a mutuality agreement?  Candidates live in the
    2-hop neighborhood (an MA is only useful between ASes that can
    actually interconnect through a shared neighbor's facilities, and it
    keeps the pair universe near-linear instead of quadratic); the gain
    of each side is the §VI mutuality count — the counterparty's
    providers and peers that are not already customers of the gaining
    side — counted on the 2-hop walk itself (the lost destinations are
    the middles of the source's wedges) without materializing the
    {!Pan_topology.Path_enum_compact.ma_gain} bitsets.

    Enumeration is pure over the immutable frozen view, so it fans out
    over sources through the supervised runner: each source keeps its
    own best [max_candidates] in a bounded heap, and the coordinator
    k-way merges those sorted runs.  Under the total order
    {!compare_candidates} the global top K is a subset of the union of
    the per-source top Ks, so the result is exact and bit-identical for
    every pool size. *)

open Pan_topology

type t = {
  x : int;  (** dense index, [x < y] *)
  y : int;
  gain_x : int;  (** new destinations [x] gains via [y] *)
  gain_y : int;
}

val compare_candidates : t -> t -> int
(** Total gain descending, ties broken by ascending [x], then [y] — the
    order {!enumerate} ranks and truncates under.  The gain sum saturates at
    [max_int]/[min_int] instead of wrapping, so the order stays total
    (antisymmetric, transitive) even for adversarial gain counts;
    saturated ties fall back to the pair order.  Pinned by a qcheck
    regression in [test_market]. *)

val enumerate :
  ?pool:Pan_runner.Pool.t ->
  ?retries:int ->
  ?deadline:float ->
  ?min_gain:int ->
  ?max_candidates:int ->
  Compact.t ->
  t array
(** Every unconnected 2-hop pair whose sides both gain at least
    [min_gain] (default 1) destinations, ordered by total gain
    descending (ties: ascending [(x, y)]) and truncated to
    [max_candidates] (default 4096).  Signing a candidate connects the
    pair, which removes it from — and generally reshapes — the next
    epoch's enumeration.  [retries]/[deadline] supervise the fan-out
    exactly as in {!Pan_runner.Task.map}.

    Cost: a source with [W] wedges (2-hop walks x–m–y) and [P]
    candidates costs O(W + P log K): the walk counts both sides' lost
    destinations per reached [y], each [y] is then scored in O(1) from
    its row lengths, and no row is re-scanned per pair.  Sources run in
    parallel on per-domain generation-stamped scratch, and the merge
    costs O(n + K log n) on the calling domain for [n] ASes, with
    K = [max_candidates].  Only kept candidates outlive their source's
    scan; the counter [market.candidates.enumerated] still reports the
    total seen.
    @raise Invalid_argument if [min_gain < 1] or [max_candidates < 0]. *)
