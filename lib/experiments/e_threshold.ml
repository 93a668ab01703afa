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
    let _, rev =
      List.fold_left
        (fun (prev, acc) t ->
          let guess =
            match prev with
            | Some (t0, q0) when cfg.warm_start ->
                Some (max 1 (q0 * t0 / t))
            | _ -> None
          in
          let qstar =
            Dut_core.Evaluate.critical_q ~adaptive:cfg.adaptive
              ~trials:cfg.trials ~level:cfg.level ~rng:(Dut_prng.Rng.split rng)
              ~ell ~eps ~hi ?guess (fun q ->
                Cg.tester_fixed ~n ~eps ~k ~q ~t Cg.Clique)
          in
          let prev = match qstar with Some q -> Some (t, q) | None -> prev in
          (prev, (t, qstar) :: acc))
        (None, []) ts
    in
    List.rev rev
  in
  let points =
    List.filter_map
      (fun (t, q) -> Option.map (fun q -> (float_of_int t, float_of_int q)) q)
      results
  in
  let exponent =
    if List.length points >= 2 then
      Dut_stats.Fit.power_law_exponent (Array.of_list points)
    else Float.nan
  in
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
