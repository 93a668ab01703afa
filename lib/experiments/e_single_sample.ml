let run (cfg : Config.t) =
  let rng = Config.rng cfg in
  let ell, eps, bits_list =
    match cfg.profile with
    | Config.Fast -> (6, 0.4, [ 1; 2; 3; 4 ])
    | Config.Full -> (7, 0.3, [ 1; 2; 3; 4; 5; 6 ])
  in
  let n = 1 lsl (ell + 1) in
  let results =
    (* Warm-start along the bits grid with [1]'s k* ∝ 2^(-l/2). A warm
       grid is computed in DESCENDING bits order: k* shrinks with the
       message size, so the one cold search runs at the cheapest grid
       point and every pricier point inherits a scaled bracket. (A
       probe's cost is itself ~k, so cold-searching at l=1 — the
       largest k* — is the single most expensive step of the whole fast
       profile.) With warm starts off every point is cold and order is
       cost-neutral, so the historical ascending order is kept — this
       is what lets `--cold-search` reproduce pre-overhaul records
       stream for stream. The search is over the player count k >= 2. *)
    Sweep.grid ~descending:true cfg
      ~guess:(fun b0 k0 bits ->
        Sweep.round ~least:2
          (float_of_int k0 /. (2. ** (float_of_int (bits - b0) /. 2.))))
      (fun bits guess ->
        Sweep.critical cfg rng ~ell ~eps ~lo:2 ~hi:(1 lsl 20) ?guess (fun k ->
            Dut_core.Single_sample.tester ~n ~eps ~k ~bits))
      bits_list
  in
  let exponent =
    Sweep.exponent (fun bits -> 2. ** float_of_int bits) results
  in
  let rows =
    List.map
      (fun (bits, kstar) ->
        match kstar with
        | None -> [ Table.Int bits; Table.Str "not found"; Table.Str "-"; Table.Str "-" ]
        | Some k ->
            [
              Table.Int bits;
              Table.Int k;
              Table.Float (float_of_int k *. (2. ** (float_of_int bits /. 2.)));
              Table.Float (Dut_core.Bounds.act_single_sample_nodes ~n ~eps ~bits);
            ])
      results
  in
  [
    Table.make
      ~title:
        (Printf.sprintf
           "T10-single-sample: critical players vs message bits (n=%d, eps=%.2f, q=1)"
           n eps)
      ~columns:[ "l (bits)"; "k*"; "k*.2^(l/2)"; "theory n/(2^(l/2) e^2)" ]
      ~notes:
        [
          Printf.sprintf
            "fitted exponent of k* in 2^l: %.3f ([1] predicts -0.5)" exponent;
          "k*.2^(l/2) should be roughly constant for l >= 2; l = 1 pays an extra";
          "constant: with 2 buckets the partitioned signal is a low-dof chi-square";
        ]
      rows;
  ]

let experiment =
  {
    Exp.id = "T10-single-sample";
    title = "Single-sample players with l-bit messages";
    statement = "[1] (recovered by Thm 6.4 at q=1): k = Theta(n/(2^(l/2) eps^2))";
    run;
  }
