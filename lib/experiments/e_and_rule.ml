module Cg = Dut_core.Comparison_graph

let run (cfg : Config.t) =
  let rng = Config.rng cfg in
  let ell, eps, ks =
    match cfg.profile with
    | Config.Fast -> (7, 0.3, [ 1; 4; 16; 64 ])
    | Config.Full -> (9, 0.25, [ 1; 4; 16; 64 ])
  in
  let n = 1 lsl (ell + 1) in
  let hi = 16 * int_of_float (Dut_core.Bounds.centralized ~n ~eps) in
  let critical ?guess make =
    Dut_core.Evaluate.critical_q ~adaptive:cfg.adaptive ~trials:cfg.trials
      ~level:cfg.level ~rng:(Dut_prng.Rng.split rng) ~ell ~eps ~hi ?guess make
  in
  let results =
    (* Warm starts from the previous k: Thm 1.2 says the AND-rule q* is
       flat in k (up to polylog), majority scales as k^(-1/2). *)
    let _, rev =
      List.fold_left
        (fun (prev, acc) k ->
          let guess_and, guess_maj =
            match prev with
            | Some (k0, a0, m0) when cfg.warm_start ->
                ( Option.map (fun a -> max 1 a) a0,
                  Option.map
                    (fun m ->
                      max 1
                        (int_of_float
                           (Float.round
                              (float_of_int m
                              *. sqrt (float_of_int k0 /. float_of_int k)))))
                    m0 )
            | _ -> (None, None)
          in
          let q_and =
            critical ?guess:guess_and (fun q ->
                Cg.tester_fixed ~n ~eps ~k ~q ~t:1 Cg.Clique)
          in
          let q_maj =
            critical ?guess:guess_maj (fun q ->
                Cg.tester_majority ~n ~eps ~k ~q
                  ~calibration_trials:cfg.calibration_trials
                  ~rng:(Dut_prng.Rng.split rng) Cg.Clique)
          in
          let prev =
            match (q_and, q_maj) with
            | None, None -> prev
            | _ -> Some (k, q_and, q_maj)
          in
          (prev, (k, q_and, q_maj) :: acc))
        (None, []) ks
    in
    List.rev rev
  in
  let fit extract =
    let pts =
      List.filter_map
        (fun (k, qa, qm) ->
          Option.map (fun q -> (float_of_int k, float_of_int q)) (extract (qa, qm)))
        results
    in
    if List.length pts >= 2 then
      Dut_stats.Fit.power_law_exponent (Array.of_list pts)
    else Float.nan
  in
  let exp_and = fit fst and exp_maj = fit snd in
  let rows =
    List.map
      (fun (k, q_and, q_maj) ->
        let cell = function None -> Table.Str "not found" | Some q -> Table.Int q in
        let ratio =
          match (q_and, q_maj) with
          | Some a, Some m when m > 0 -> Table.Float (float_of_int a /. float_of_int m)
          | _, _ -> Table.Str "-"
        in
        [
          Table.Int k;
          cell q_and;
          cell q_maj;
          ratio;
          Table.Float (Dut_core.Bounds.thm12_and_lower ~n ~k ~eps);
        ])
      results
  in
  [
    Table.make
      ~title:
        (Printf.sprintf "T2-and-rule: AND vs majority critical q (n=%d, eps=%.2f)"
           n eps)
      ~columns:
        [ "k"; "q* AND"; "q* majority"; "AND/majority"; "thm1.2 sqrt(n)/(lg^2 k e^2)" ]
      ~notes:
        [
          Printf.sprintf
            "fitted exponents: AND %.3f (Thm 1.2: ~0 up to polylog), majority %.3f (~-0.5)"
            exp_and exp_maj;
          "the AND/majority ratio grows with k: locality costs samples";
        ]
      rows;
  ]

let experiment =
  {
    Exp.id = "T2-and-rule";
    title = "The cost of the AND (local) decision rule";
    statement =
      "Theorem 1.2: AND rule needs q = Omega(sqrt(n)/(log^2(k) eps^2)) unless k = 2^Omega(1/eps)";
    run;
  }
