module Cg = Dut_core.Comparison_graph

let run (cfg : Config.t) =
  let rng = Config.rng cfg in
  let ell, eps, k =
    match cfg.profile with
    | Config.Fast -> (7, 0.3, 32)
    | Config.Full -> (9, 0.25, 64)
  in
  let n = 1 lsl (ell + 1) in
  let q = 4 * int_of_float (Dut_core.Bounds.fmo_threshold_upper ~n ~k ~eps) in
  let calibration_rows =
    List.map
      (fun calibration_trials ->
        let tester =
          Cg.tester_majority ~n ~eps ~k ~q
            ~calibration_trials ~rng:(Dut_prng.Rng.split rng) Cg.Clique
        in
        let p =
          Dut_core.Evaluate.measure ~trials:cfg.trials
            ~rng:(Dut_prng.Rng.split rng) ~ell ~eps tester
        in
        [
          Table.Int calibration_trials;
          Table.Float p.uniform_accept.estimate;
          Table.Float p.far_reject.estimate;
          Table.Float
            (Float.min p.uniform_accept.estimate p.far_reject.estimate);
        ])
      [ 10; 25; 50; 100; 200; 400 ]
  in
  let hi = 16 * int_of_float (Dut_core.Bounds.centralized ~n ~eps) in
  let level_rows =
    (* q* grows with the demanded level: warm-start each level at the
       previous (lower) level's answer. *)
    let prev = ref None in
    List.map
      (fun level ->
        let guess = if cfg.warm_start then !prev else None in
        let qstar =
          Dut_core.Evaluate.critical_q ~adaptive:cfg.adaptive
            ~trials:cfg.trials ~level
            ~rng:(Dut_prng.Rng.split rng) ~ell ~eps ~hi ?guess (fun q ->
              Cg.tester_majority ~n ~eps ~k ~q
                ~calibration_trials:cfg.calibration_trials
                ~rng:(Dut_prng.Rng.split rng) Cg.Clique)
        in
        (match qstar with Some q -> prev := Some q | None -> ());
        [
          Table.Float level;
          (match qstar with Some q -> Table.Int q | None -> Table.Str "not found");
        ])
      [ 0.67; 0.72; 0.8; 0.88 ]
  in
  [
    Table.make
      ~title:
        (Printf.sprintf
           "A1-ablation: power vs calibration budget (n=%d, k=%d, q=%d)" n k q)
      ~columns:[ "calibration trials"; "accept uniform"; "reject far"; "min" ]
      ~notes:
        [
          "power should climb then plateau: the default budget sits on the plateau";
        ]
      calibration_rows;
    Table.make
      ~title:
        (Printf.sprintf "A1-ablation: critical q vs demanded success level (k=%d)" k)
      ~columns:[ "level"; "q*" ]
      ~notes:
        [
          "smooth growth across the operating range (<= 0.8); the harness's";
          "0.72 default sits well inside it. Demanding a level near the";
          "calibrated acceptance ceiling (1 - 0.2 false-alarm budget) explodes";
          "q*: the referee's own calibration bounds the achievable level";
        ]
      level_rows;
  ]

let experiment =
  {
    Exp.id = "A1-ablation";
    title = "Harness sensitivity: calibration budget and success level";
    statement = "DESIGN.md decisions 1 and 4 (calibrated referees; critical-q search)";
    run;
  }
