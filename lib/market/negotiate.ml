open Pan_numerics
open Pan_topology
open Pan_econ
module Obs = Pan_obs.Obs
module Workspace = Pan_bosco.Workspace
module Service = Pan_bosco.Service

type arena = { bosco : Workspace.t; econ : Econ_workspace.t }

(* One arena per domain, created on the domain's first negotiation and
   reused for every later one it runs — no per-negotiation allocation of
   kernel scratch, and the opponent-CDF cache is keyed per shard.
   Workspaces are bit-identical scratch, so which domain runs which
   negotiation can never change an outcome. *)
let arena_key =
  Domain.DLS.new_key (fun () ->
      {
        bosco = Workspace.create ~cache_capacity:16 ();
        econ = Econ_workspace.create ();
      })

let arena () = Domain.DLS.get arena_key

type outcome = {
  cand : Candidates.t;
  u_x : float;
  u_y : float;
  viable : bool;
  pod : float;
  rounds : int;
  converged : bool;
  signed : bool;
}

let forecast_levels = [| 0.25; 0.5; 0.75; 1.0 |]

(* What [via] offers [side]: its providers, then its peers, that are
   neither [side] itself nor already customers of [side] — the same
   filter as Path_enum_compact.ma_gain. *)
let offer topo ~side ~via =
  let keep z = z <> side && not (Compact.mem_customer topo side z) in
  let row iter =
    let acc = ref [] in
    iter topo via (fun z -> if keep z then acc := z :: !acc);
    List.rev !acc
  in
  (row Compact.iter_providers, row Compact.iter_peers)

(* The offer classified into grant components, so Agreement validation
   sees subsets of [via]'s actual neighbor sets. *)
let grant_of_offer topo (providers, peers) =
  let set l = Asn.Set.of_list (List.map (Compact.id topo) l) in
  {
    Agreement.providers = set providers;
    peers = set peers;
    customers = Asn.Set.empty;
  }

(* Deterministic per-AS business conditions, the Adoption recipe with a
   market-keyed seed stream: varied transit/stub pricing and internal
   cost rates are what make some agreements viable and others not. *)
let business_of ~seed g x =
  let rng = Rng.create (Hashtbl.hash (seed, Asn.to_int x, "market-biz")) in
  let transit = Pricing.per_usage ~unit_price:(Rng.uniform rng 0.7 1.3) in
  let stub =
    if Rng.float rng < 0.4 then Pricing.flat_rate ~fee:20.0
    else Pricing.per_usage ~unit_price:(Rng.uniform rng 1.2 2.5)
  in
  let internal = Cost.linear ~rate:(Rng.uniform rng 0.05 0.7) in
  Business.of_graph ~default_transit:transit ~default_internal:internal
    ~stub_price:stub g x

let baseline_of topo ix =
  let dx = Compact.degree topo ix in
  let stub_volume = 4.0 +. float_of_int dx in
  let entries = ref [ (Flows.stub (Compact.id topo ix), stub_volume) ] in
  Compact.iter_neighbors topo ix (fun iy ->
      let v = 2.0 *. sqrt (float_of_int (dx * Compact.degree topo iy)) in
      entries := (Compact.id topo iy, v) :: !entries);
  Flows.of_list !entries

(* Forecast demands for one side from the transit's offer: its providers
   first (the headline MA case), then its peers, each by degree
   descending, ties by index ascending (= ASN ascending). *)
let demands_for ~rng ~max_demands topo ~beneficiary ~transit (providers, peers)
    =
  let by_degree l =
    List.sort
      (fun a b ->
        match Int.compare (Compact.degree topo b) (Compact.degree topo a) with
        | 0 -> Int.compare a b
        | c -> c)
      l
  in
  let dests =
    by_degree providers @ by_degree peers
    |> List.filteri (fun i _ -> i < max_demands)
  in
  let lowest = ref max_int in
  Compact.iter_providers topo beneficiary (fun p ->
      lowest := Int.min !lowest p);
  let reroute_from =
    if !lowest = max_int then None else Some (Compact.id topo !lowest)
  in
  let provider_traffic =
    4.0 *. sqrt (float_of_int (Compact.degree topo beneficiary))
  in
  let beneficiary = Compact.id topo beneficiary
  and transit = Compact.id topo transit in
  List.map
    (fun z ->
      let share = Rng.uniform rng 0.05 0.3 in
      let reroutable =
        if reroute_from = None then 0.0 else provider_traffic *. share
      in
      Traffic_model.
        {
          beneficiary;
          transit;
          dest = Compact.id topo z;
          reroutable;
          reroute_from;
          attracted_max = reroutable *. Rng.uniform rng 0.2 0.8;
        })
    dests

(* Score the agreement economically: all forecast levels in one batch
   kernel call, best surplus (ties: lowest level) fixes the utilities a
   cash-compensation bargain starts from. *)
let score_best ~econ_ws model =
  let n_d = Model_fast.n_demands model in
  let stride = 2 * n_d in
  let m = Array.length forecast_levels in
  let demands = Traffic_model.demands (Model_fast.scenario model) in
  let vectors = Array.make (Int.max 1 (m * stride)) 0.0 in
  List.iteri
    (fun d (dem : Traffic_model.segment_demand) ->
      Array.iteri
        (fun l level ->
          let base = (l * stride) + (2 * d) in
          vectors.(base) <- level *. dem.Traffic_model.reroutable;
          vectors.(base + 1) <- level *. dem.Traffic_model.attracted_max)
        forecast_levels)
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

(* The deterministic prefix both mechanisms share: pair-keyed rng,
   agreement construction, forecast demands (which consume the rng), and
   the batched econ scoring.  [negotiate_pair] continues the returned rng
   into BOSCO; [score_pair] stops here.  Because both run exactly these
   operations in this order, the Nash-Peering qualifier and the BOSCO
   path see bit-identical utilities and pair randomness for the same
   candidate stream. *)
let pair_context ~graph ~topo ~seed ~epoch ~max_demands cand =
  let ar = arena () in
  let ix = cand.Candidates.x and iy = cand.Candidates.y in
  let x = Compact.id topo ix and y = Compact.id topo iy in
  let rng =
    Rng.create
      (Hashtbl.hash (seed, epoch, Asn.to_int x, Asn.to_int y, "market-pair"))
  in
  let x_offer = offer topo ~side:iy ~via:ix in
  let y_offer = offer topo ~side:ix ~via:iy in
  let agreement =
    Agreement.make_exn graph ~x ~y
      ~x_grant:(grant_of_offer topo x_offer)
      ~y_grant:(grant_of_offer topo y_offer)
  in
  let demands =
    demands_for ~rng ~max_demands topo ~beneficiary:ix ~transit:iy y_offer
    @ demands_for ~rng ~max_demands topo ~beneficiary:iy ~transit:ix x_offer
  in
  let scenario =
    Traffic_model.make_scenario_exn ~graph ~agreement
      ~businesses:
        [ (x, business_of ~seed graph x); (y, business_of ~seed graph y) ]
      ~baseline:[ (x, baseline_of topo ix); (y, baseline_of topo iy) ]
      ~demands
  in
  let model = Model_fast.compile scenario in
  let u_x, u_y = score_best ~econ_ws:ar.econ model in
  (rng, u_x, u_y)

let score_pair ~graph ~topo ~seed ~epoch ~max_demands cand =
  let _rng, u_x, u_y =
    pair_context ~graph ~topo ~seed ~epoch ~max_demands cand
  in
  Obs.incr "market.scored";
  (u_x, u_y)

let negotiate_pair ~graph ~topo ~seed ~epoch ~w ~max_demands ~truthful ~dist
    cand =
  let ar = arena () in
  let rng, u_x, u_y =
    pair_context ~graph ~topo ~seed ~epoch ~max_demands cand
  in
  Obs.incr "market.pairs";
  if not (Nash.viable ~u_x ~u_y) then
    {
      cand;
      u_x;
      u_y;
      viable = false;
      pod = Float.nan;
      rounds = 0;
      converged = false;
      signed = false;
    }
  else begin
    Obs.incr "market.viable";
    let r =
      Service.negotiate ~truthful ~workspace:ar.bosco ~rng ~dist_x:dist
        ~dist_y:dist ~w ()
    in
    Obs.incr "market.negotiations";
    Obs.incr ~by:r.Service.rounds "market.rounds";
    let signed = r.Service.converged in
    if signed then Obs.incr "market.signed";
    {
      cand;
      u_x;
      u_y;
      viable = true;
      pod = r.Service.pod;
      rounds = r.Service.rounds;
      converged = r.Service.converged;
      signed;
    }
  end
