module Cg = Dut_core.Comparison_graph

let run (cfg : Config.t) =
  let rng = Config.rng cfg in
  let ell, eps, k, ts =
    match cfg.profile with
    | Config.Fast -> (7, 0.3, 32, [ 1; 2; 4; 8; 16 ])
    | Config.Full -> (9, 0.25, 64, [ 1; 2; 4; 8; 16; 32 ])
  in
  let n = 1 lsl (ell + 1) in
  let hi = 16 * int_of_float (Dut_core.Bounds.centralized ~n ~eps) in
  let results =
    (* Warm-start along the T grid with Theorem 1.3's q* ∝ 1/T. *)
    Sweep.grid cfg
      ~guess:(fun t0 q0 t -> max 1 (q0 * t0 / t))
      (fun t guess ->
        Sweep.critical cfg rng ~ell ~eps ~hi ?guess (fun q ->
            Cg.tester_fixed ~n ~eps ~k ~q ~t Cg.Clique))
      ts
  in
  let exponent = Sweep.exponent float_of_int results in
  let rows =
    List.map
      (fun (t, qstar) ->
        match qstar with
        | None -> [ Table.Int t; Table.Str "not found"; Table.Str "-"; Table.Str "-" ]
        | Some q ->
            [
              Table.Int t;
              Table.Int q;
              Table.Float (float_of_int (q * t));
              Table.Float (Dut_core.Bounds.thm13_threshold_lower ~n ~k ~eps ~t);
            ])
      results
  in
  [
    Table.make
      ~title:
        (Printf.sprintf
           "T3-threshold-T: critical q vs reject-threshold T (n=%d, k=%d, eps=%.2f)"
           n k eps)
      ~columns:[ "T"; "q*"; "q*.T"; "thm1.3 sqrt(n)/(T lg^2(k/e) e^2)" ]
      ~notes:
        [
          Printf.sprintf
            "fitted exponent of q*(T): %.3f (Theorem 1.3 predicts about -1 before saturation)"
            exponent;
          "T=1 is the AND rule; q*.T should be roughly flat in the 1/T regime";
        ]
      rows;
  ]

let experiment =
  {
    Exp.id = "T3-threshold-T";
    title = "The cost of small reject thresholds";
    statement =
      "Theorem 1.3: the T-threshold rule needs q = Omega(sqrt(n)/(T log^2(k/eps) eps^2))";
    run;
  }
