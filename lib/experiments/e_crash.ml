module Cg = Dut_core.Comparison_graph

let run (cfg : Config.t) =
  let rng = Config.rng cfg in
  let ell, eps, k =
    match cfg.profile with
    | Config.Fast -> (7, 0.3, 32)
    | Config.Full -> (9, 0.25, 64)
  in
  let n = 1 lsl (ell + 1) in
  let q = 5 * int_of_float (Dut_core.Bounds.fmo_threshold_upper ~n ~k ~eps) in
  let power tester =
    let p =
      Dut_core.Evaluate.measure ~trials:cfg.trials ~rng:(Dut_prng.Rng.split rng)
        ~ell ~eps tester
    in
    (p.uniform_accept.estimate, p.far_reject.estimate)
  in
  let rows =
    List.map
      (fun phi ->
        let ua, fr =
          power
            (Dut_core.Crash_tester.tester ~n ~eps ~k ~q ~crash_prob:phi
               ~calibration_trials:cfg.calibration_trials
               ~rng:(Dut_prng.Rng.split rng))
        in
        (* Reference: crash-free tester on the surviving fleet size. *)
        let k_eff = max 1 (int_of_float (Float.round ((1. -. phi) *. float_of_int k))) in
        let rua, rfr =
          power
            (Cg.tester_majority ~n ~eps ~k:k_eff ~q
               ~calibration_trials:cfg.calibration_trials
               ~rng:(Dut_prng.Rng.split rng) Cg.Clique)
        in
        [
          Table.Float phi;
          Table.Float ua;
          Table.Float fr;
          Table.Int k_eff;
          Table.Float (Float.min rua rfr);
          Table.Bool (Float.min ua fr >= Float.min rua rfr -. 0.12);
        ])
      [ 0.; 0.1; 0.25; 0.5 ]
  in
  [
    Table.make
      ~title:
        (Printf.sprintf
           "T18-crash: power under crash faults (n=%d, k=%d, q=%d)" n k q)
      ~columns:
        [
          "crash prob"; "accept uniform"; "reject far"; "k_eff = (1-phi)k";
          "crash-free power at k_eff"; "tracks k_eff";
        ]
      ~notes:
        [
          "the crash-aware referee decides on the live reject fraction;";
          "degradation should track the smaller effective fleet, not collapse";
        ]
      rows;
  ]

let experiment =
  {
    Exp.id = "T18-crash";
    title = "Crash faults";
    statement = "Extension: visible crashes cost only the effective fleet size";
    run;
  }
