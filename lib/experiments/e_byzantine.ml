let run (cfg : Config.t) =
  let rng = Config.rng cfg in
  let ell, eps, k =
    match cfg.profile with
    | Config.Fast -> (7, 0.3, 32)
    | Config.Full -> (9, 0.25, 64)
  in
  let n = 1 lsl (ell + 1) in
  let q = 6 * int_of_float (Dut_core.Bounds.fmo_threshold_upper ~n ~k ~eps) in
  let predicted = Dut_core.Byzantine_tester.tolerated_faults ~n ~eps ~k ~q in
  let bs = [ 0; 1; 2; 4; 8; (k / 2) - 1 ] |> List.sort_uniq compare in
  let rows =
    List.map
      (fun b ->
        let measure ~far_flag =
          let tester =
            Dut_core.Byzantine_tester.tester ~n ~eps ~k ~q ~byzantine:b
              ~adversary:Dut_core.Byzantine_tester.Smart
              ~calibration_trials:cfg.calibration_trials
              ~rng:(Dut_prng.Rng.split rng) ~far_flag
          in
          let trial_rng = Dut_prng.Rng.split rng in
          (Dut_stats.Montecarlo.estimate_prob ~trials:cfg.trials trial_rng
             (fun r ->
               if far_flag then begin
                 let d = Dut_dist.Paninski.random ~ell ~eps r in
                 not (tester r (Dut_protocol.Network.of_paninski d))
               end
               else tester r (Dut_protocol.Network.uniform_source ~n)))
            .estimate
        in
        let ua = measure ~far_flag:false in
        let fr = measure ~far_flag:true in
        [
          Table.Int b;
          Table.Float ua;
          Table.Float fr;
          Table.Float (Float.min ua fr);
          Table.Bool (Float.min ua fr >= 2. /. 3.);
        ])
      bs
  in
  [
    Table.make
      ~title:
        (Printf.sprintf
           "T19-byzantine: power vs lying players (n=%d, k=%d, q=%d, smart adversary)"
           n k q)
      ~columns:[ "byzantine b"; "accept uniform"; "reject far"; "min"; "succeeds" ]
      ~notes:
        [
          Printf.sprintf "predicted tolerance scale: b ~ %.1f (k (p_far - p_null)/2)"
            predicted;
          "one-bit messages cap the adversary at shifting the count by b;";
          "the hardened referee widens its band by b (safety kept, detection pays 2b)";
        ]
      rows;
  ]

let experiment =
  {
    Exp.id = "T19-byzantine";
    title = "Byzantine players";
    statement =
      "Extension: one-bit messages bound the adversary too; tolerance ~ k(p_far-p_null)/2";
    run;
  }
