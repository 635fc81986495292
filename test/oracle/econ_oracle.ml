(* The map-based econ path (Traffic_model utilities) that Model_fast
   replicates bit for bit, wired into the same optimizers: the oracle the
   §IV flow-volume and cash optimizers are tested and benchmarked
   against. *)

open Pan_econ

(* Flow_volume_opt's exact-penalty Nash objective on a flat decision
   vector [r_0; a_0; r_1; a_1; ...], through Traffic_model.utilities. *)
let nash_objective scenario =
  let demands = Traffic_model.demands scenario in
  fun v ->
    let choices =
      List.mapi
        (fun i _ ->
          Traffic_model.{ reroute = v.(2 * i); attracted = v.((2 * i) + 1) })
        demands
    in
    match Traffic_model.utilities scenario choices with
    | Error _ -> neg_infinity
    | Ok (ux, uy) ->
        let worst = Float.min ux uy in
        if worst < 0.0 then worst else ux *. uy

(* Flow_volume_opt.optimize's Nelder–Mead search over nash_objective. *)
let flow_volume ?starts_per_dim scenario =
  Flow_volume_opt.optimize_with ?starts_per_dim
    ~objective:(nash_objective scenario) scenario

(* Cash_opt.optimize: utilities at the full forecast, settled with the
   Nash transfer. *)
let cash scenario =
  let u_x, u_y =
    Traffic_model.utilities_exn scenario (Traffic_model.full_choice scenario)
  in
  let transfer, u_x_after, u_y_after, concluded =
    match Nash.after_transfer ~u_x ~u_y with
    | Some (ax, ay) -> (u_x -. ax, ax, ay, true)
    | None -> (0.0, 0.0, 0.0, false)
  in
  Cash_opt.{ u_x; u_y; transfer; u_x_after; u_y_after; concluded }

let compare_methods ?starts_per_dim scenario =
  Negotiation.
    { flow_volume = flow_volume ?starts_per_dim scenario; cash = cash scenario }
