let run (cfg : Config.t) =
  let rng = Config.rng cfg in
  let ell, eps, k, bits_list =
    match cfg.profile with
    | Config.Fast -> (7, 0.3, 32, [ 1; 2; 3 ])
    | Config.Full -> (9, 0.25, 64, [ 1; 2; 3; 4 ])
  in
  let n = 1 lsl (ell + 1) in
  let hi = 16 * int_of_float (Dut_core.Bounds.centralized ~n ~eps) in
  let results =
    (* Warm-start along the message-size grid with Theorem 6.4's
       q* ∝ 2^(-r/2). *)
    Sweep.grid cfg
      ~guess:(fun b0 q0 bits ->
        Sweep.round
          (float_of_int q0 /. (2. ** (float_of_int (bits - b0) /. 2.))))
      (fun bits guess ->
        Sweep.critical cfg rng ~ell ~eps ~hi ?guess (fun q ->
            Dut_core.Rbit_tester.tester ~n ~eps ~k ~q ~bits
              ~calibration_trials:cfg.calibration_trials
              ~rng:(Dut_prng.Rng.split rng)))
      bits_list
  in
  let rows =
    List.map
      (fun (bits, qstar) ->
        match qstar with
        | None -> [ Table.Int bits; Table.Str "not found"; Table.Str "-" ]
        | Some q ->
            [
              Table.Int bits;
              Table.Int q;
              Table.Float (Dut_core.Bounds.thm64_rbit_lower ~n ~k ~eps ~r:bits);
            ])
      results
  in
  [
    Table.make
      ~title:
        (Printf.sprintf "T6-rbit: critical q vs message bits (n=%d, k=%d, eps=%.2f)"
           n k eps)
      ~columns:[ "r (bits)"; "q*"; "thm6.4 lower" ]
      ~notes:
        [
          "q* decreases with r, with diminishing returns (Theorem 6.4's 2^r factor)";
        ]
      rows;
  ]

let experiment =
  {
    Exp.id = "T6-rbit";
    title = "Longer messages";
    statement =
      "Theorem 6.4: with r-bit messages, q = Omega(min(sqrt(n/(2^r k)), n/(2^r k))/eps^2)";
    run;
  }
