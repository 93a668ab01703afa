module Cg = Dut_core.Comparison_graph

let run (cfg : Config.t) =
  let rng = Config.rng cfg in
  let ell, eps, ks =
    match cfg.profile with
    | Config.Fast -> (7, 0.3, [ 1; 4; 16; 64 ])
    | Config.Full -> (9, 0.25, [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ])
  in
  let n = 1 lsl (ell + 1) in
  let hi = 16 * int_of_float (Dut_core.Bounds.centralized ~n ~eps) in
  let results =
    (* Warm-start each k from the previous q* scaled by Theorem 1.1's
       q* ∝ k^(-1/2), so the search brackets near the answer instead of
       cold-doubling from 1. *)
    Sweep.grid cfg
      ~guess:(fun k0 q0 k ->
        Sweep.round (float_of_int q0 *. sqrt (float_of_int k0 /. float_of_int k)))
      (fun k guess ->
        Sweep.critical cfg rng ~ell ~eps ~hi ?guess (fun q ->
            Cg.tester_majority ~n ~eps ~k ~q
              ~calibration_trials:cfg.calibration_trials
              ~rng:(Dut_prng.Rng.split rng) Cg.Clique))
      ks
  in
  let points = Sweep.points float_of_int results in
  let exponent_note =
    if Array.length points >= 3 then begin
      let ci = Dut_stats.Bootstrap.exponent_ci (Dut_prng.Rng.split rng) points in
      Printf.sprintf
        "fitted exponent of q*(k): %.3f [90%% bootstrap %.3f, %.3f] (Theorem 1.1 predicts -0.5)"
        ci.estimate ci.lower ci.upper
    end
    else "too few points to fit"
  in
  let rows =
    List.map
      (fun (k, qstar) ->
        match qstar with
        | None -> [ Table.Int k; Table.Str "not found"; Table.Str "-"; Table.Str "-" ]
        | Some q ->
            [
              Table.Int k;
              Table.Int q;
              Table.Float (float_of_int q *. sqrt (float_of_int k));
              Table.Float (Dut_core.Bounds.thm11_lower ~n ~k ~eps);
            ])
      results
  in
  [
    Table.make
      ~title:
        (Printf.sprintf
           "T1-any-rule: critical q vs k (majority rule, n=%d, eps=%.2f)" n eps)
      ~columns:[ "k"; "q*"; "q*.sqrt(k)"; "theory sqrt(n/k)/e^2" ]
      ~notes:
        [ exponent_note; "q*.sqrt(k) should be roughly constant across rows" ]
      rows;
  ]

let experiment =
  {
    Exp.id = "T1-any-rule";
    title = "Sample complexity under the best decision rule";
    statement = "Theorem 1.1 / 6.1: q = Theta(sqrt(n/k)/eps^2) for any rule";
    run;
  }
