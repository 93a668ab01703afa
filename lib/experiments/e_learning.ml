let run (cfg : Config.t) =
  let rng = Config.rng cfg in
  let ell, eps, delta, qs, err_trials =
    match cfg.profile with
    | Config.Fast -> (4, 0.5, 0.30, [ 1; 2; 4; 8 ], 12)
    | Config.Full -> (5, 0.5, 0.25, [ 1; 2; 4; 8; 16 ], 24)
  in
  let n = 1 lsl (ell + 1) in
  let results =
    List.map
      (fun q ->
        let kstar =
          Dut_core.Learning.critical_k ~trials:err_trials
            ~rng:(Dut_prng.Rng.split rng) ~ell ~eps ~q ~delta ~hi:(1 lsl 22) ()
        in
        (q, kstar))
      qs
  in
  let exponent = Sweep.exponent float_of_int results in
  let rows =
    List.map
      (fun (q, kstar) ->
        let lower = Dut_core.Bounds.thm14_learning_nodes ~n ~q in
        match kstar with
        | None -> [ Table.Int q; Table.Str "not found"; Table.Float lower; Table.Str "-" ]
        | Some k ->
            [
              Table.Int q;
              Table.Int k;
              Table.Float lower;
              Table.Bool (float_of_int k >= lower);
            ])
      results
  in
  [
    Table.make
      ~title:
        (Printf.sprintf
           "T4-learning: nodes needed to learn within l1 %.2f vs q (n=%d)" delta n)
      ~columns:[ "q"; "k*"; "thm1.4 lower n^2/q^2"; "respects bound" ]
      ~notes:
        [
          Printf.sprintf
            "fitted exponent of k*(q): %.3f (protocol theory ~ -1; Thm 1.4 allows down to -2)"
            exponent;
          "hard instances: fresh Paninski nu_z per trial at eps=0.5";
        ]
      rows;
  ]

let experiment =
  {
    Exp.id = "T4-learning";
    title = "Distributed learning of the input distribution";
    statement = "Theorem 1.4: learning needs k = Omega(n^2/q^2) nodes";
    run;
  }
