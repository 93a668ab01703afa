(* The collision tester of [Collision.test] (same statistic, same
   cutoff) without a fresh q-sample array per trial. *)
let centralized_tester ~n ~eps ~q : Dut_core.Evaluate.tester =
 fun rng source ->
  float_of_int (Dut_core.Local_stat.draw_collisions ~n ~q source rng)
  < Dut_testers.Collision.cutoff ~n ~m:q ~eps

let run (cfg : Config.t) =
  let rng = Config.rng cfg in
  let ells, eps_fixed, ell_fixed, epss =
    match cfg.profile with
    | Config.Fast -> ([ 5; 6; 7; 8 ], 0.3, 6, [ 0.2; 0.3; 0.4; 0.5 ])
    | Config.Full -> ([ 5; 6; 7; 8; 9; 10 ], 0.25, 8, [ 0.15; 0.2; 0.25; 0.3; 0.4; 0.5 ])
  in
  let critical ~ell ~eps guess =
    let n = 1 lsl (ell + 1) in
    let hi = 16 * int_of_float (Dut_core.Bounds.centralized ~n ~eps) in
    Sweep.critical cfg rng ~ell ~eps ~hi ?guess (fun q ->
        centralized_tester ~n ~eps ~q)
  in
  (* Warm starts along both sweeps: m* ∝ sqrt(n) on the n grid,
     m* ∝ eps^(-2) on the eps grid. *)
  let n_sweep =
    Sweep.grid cfg
      ~guess:(fun ell0 m0 ell ->
        Sweep.round
          (float_of_int m0 *. (2. ** (float_of_int (ell - ell0) /. 2.))))
      (fun ell -> critical ~ell ~eps:eps_fixed)
      ells
  in
  let eps_sweep =
    Sweep.grid cfg
      ~guess:(fun e0 m0 eps -> Sweep.round (float_of_int m0 *. ((e0 /. eps) ** 2.)))
      (fun eps -> critical ~ell:ell_fixed ~eps)
      epss
  in
  let n_exponent =
    Sweep.exponent (fun ell -> float_of_int (1 lsl (ell + 1))) n_sweep
  in
  let eps_exponent = Sweep.exponent Fun.id eps_sweep in
  let n_rows =
    List.map
      (fun (ell, qstar) ->
        let n = 1 lsl (ell + 1) in
        match qstar with
        | None -> [ Table.Int n; Table.Str "not found"; Table.Str "-" ]
        | Some q ->
            [
              Table.Int n;
              Table.Int q;
              Table.Float (Dut_core.Bounds.centralized ~n ~eps:eps_fixed);
            ])
      n_sweep
  in
  let eps_rows =
    List.map
      (fun (eps, qstar) ->
        let n = 1 lsl (ell_fixed + 1) in
        match qstar with
        | None -> [ Table.Float eps; Table.Str "not found"; Table.Str "-" ]
        | Some q ->
            [ Table.Float eps; Table.Int q; Table.Float (Dut_core.Bounds.centralized ~n ~eps) ])
      eps_sweep
  in
  [
    Table.make
      ~title:
        (Printf.sprintf "T5-centralized: critical samples vs n (eps=%.2f)" eps_fixed)
      ~columns:[ "n"; "m*"; "theory sqrt(n)/e^2" ]
      ~notes:
        [
          Printf.sprintf "fitted exponent in n: %.3f (theory 0.5)" n_exponent;
        ]
      n_rows;
    Table.make
      ~title:
        (Printf.sprintf "T5-centralized: critical samples vs eps (n=%d)"
           (1 lsl (ell_fixed + 1)))
      ~columns:[ "eps"; "m*"; "theory sqrt(n)/e^2" ]
      ~notes:
        [
          Printf.sprintf "fitted exponent in eps: %.3f (theory -2)" eps_exponent;
        ]
      eps_rows;
  ]

let experiment =
  {
    Exp.id = "T5-centralized";
    title = "Centralized baseline";
    statement = "Paninski 2008: centralized uniformity testing is Theta(sqrt(n)/eps^2)";
    run;
  }
