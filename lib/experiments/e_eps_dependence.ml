module Cg = Dut_core.Comparison_graph

let run (cfg : Config.t) =
  let rng = Config.rng cfg in
  let ell, k, epss =
    match cfg.profile with
    | Config.Fast -> (7, 16, [ 0.25; 0.35; 0.5 ])
    | Config.Full -> (9, 32, [ 0.15; 0.2; 0.25; 0.35; 0.5 ])
  in
  let n = 1 lsl (ell + 1) in
  let results =
    (* Warm-start along the eps grid with the shared q* ∝ eps^(-2). *)
    let scale e0 e q0 =
      max 1 (int_of_float (Float.round (float_of_int q0 *. (e0 /. e) ** 2.)))
    in
    let _, rev =
      List.fold_left
        (fun (prev, acc) eps ->
          let hi = 16 * int_of_float (Dut_core.Bounds.centralized ~n ~eps) in
          let guess_maj, guess_and =
            match prev with
            | Some (e0, m0, a0) when cfg.warm_start ->
                (Option.map (scale e0 eps) m0, Option.map (scale e0 eps) a0)
            | _ -> (None, None)
          in
          let q_maj =
            Dut_core.Evaluate.critical_q ~adaptive:cfg.adaptive
              ~trials:cfg.trials ~level:cfg.level ~rng:(Dut_prng.Rng.split rng)
              ~ell ~eps ~hi ?guess:guess_maj (fun q ->
                Cg.tester_majority ~n ~eps ~k ~q
                  ~calibration_trials:cfg.calibration_trials
                  ~rng:(Dut_prng.Rng.split rng) Cg.Clique)
          in
          let q_and =
            Dut_core.Evaluate.critical_q ~adaptive:cfg.adaptive
              ~trials:cfg.trials ~level:cfg.level ~rng:(Dut_prng.Rng.split rng)
              ~ell ~eps ~hi ?guess:guess_and (fun q ->
                Cg.tester_fixed ~n ~eps ~k ~q ~t:1 Cg.Clique)
          in
          let prev =
            match (q_maj, q_and) with
            | None, None -> prev
            | _ -> Some (eps, q_maj, q_and)
          in
          (prev, (eps, q_maj, q_and) :: acc))
        (None, []) epss
    in
    List.rev rev
  in
  let fit extract =
    let pts =
      List.filter_map
        (fun (eps, qm, qa) ->
          Option.map (fun q -> (eps, float_of_int q)) (extract (qm, qa)))
        results
    in
    if List.length pts >= 2 then
      Dut_stats.Fit.power_law_exponent (Array.of_list pts)
    else Float.nan
  in
  let rows =
    List.map
      (fun (eps, q_maj, q_and) ->
        let cell = function None -> Table.Str "not found" | Some q -> Table.Int q in
        [
          Table.Float eps;
          cell q_maj;
          cell q_and;
          Table.Float (Dut_core.Bounds.thm11_lower ~n ~k ~eps);
        ])
      results
  in
  [
    Table.make
      ~title:
        (Printf.sprintf "T15-eps: critical q vs eps, distributed testers (n=%d, k=%d)"
           n k)
      ~columns:[ "eps"; "q* majority"; "q* AND"; "thm1.1 sqrt(n/k)/e^2" ]
      ~notes:
        [
          Printf.sprintf
            "fitted eps-exponents: majority %.2f, AND %.2f (theory -2 for both)"
            (fit fst) (fit snd);
        ]
      rows;
  ]

let experiment =
  {
    Exp.id = "T15-eps";
    title = "The eps-dependence, distributed";
    statement = "Theorems 1.1/1.2 share the 1/eps^2 factor of the centralized bound";
    run;
  }
