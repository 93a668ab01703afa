module Cg = Dut_core.Comparison_graph

let run (cfg : Config.t) =
  let rng = Config.rng cfg in
  let ell, epss, ks =
    match cfg.profile with
    | Config.Fast -> (7, [ 0.3; 0.5 ], [ 1; 4; 16; 64 ])
    | Config.Full -> (8, [ 0.25; 0.4; 0.6 ], [ 1; 4; 16; 64; 256 ])
  in
  let n = 1 lsl (ell + 1) in
  let rows =
    List.map
      (fun eps ->
        let hi = 16 * int_of_float (Dut_core.Bounds.centralized ~n ~eps) in
        let points =
          (* The AND tester's q* is nearly flat in k: the previous grid
             point's answer is already a tight warm-start bracket. *)
          Sweep.grid cfg
            ~guess:(fun _ q0 _ -> q0)
            (fun k guess ->
              Sweep.critical cfg rng ~ell ~eps ~hi ?guess (fun q ->
                  Cg.tester_fixed ~n ~eps ~k ~q ~t:1 Cg.Clique))
            ks
          |> Sweep.points float_of_int
        in
        if Array.length points < 3 then
          [ Table.Float eps; Table.Str "not enough points"; Table.Str "-";
            Table.Str "-"; Table.Str "-"; Table.Str "-" ]
        else begin
          let ci = Dut_stats.Bootstrap.exponent_ci (Dut_prng.Rng.split rng) points in
          (* The AND tester's gain exponent theta satisfies q* ~ k^-theta,
             so theta-hat = -slope. *)
          let theta = -.ci.estimate in
          [
            Table.Float eps;
            Table.Float theta;
            Table.Str (Printf.sprintf "[%.3f, %.3f]" (-.ci.upper) (-.ci.lower));
            Table.Float (eps *. eps);
            Table.Float eps;
            Table.Str
              (if Float.abs (theta -. (eps *. eps)) < Float.abs (theta -. eps)
               then "eps^2 (the [7] tester)"
               else "eps (the lower bound's allowance)");
          ]
        end)
      epss
  in
  [
    Table.make
      ~title:
        (Printf.sprintf
           "T20-open-problem: the AND tester's k-exponent vs eps (n=%d)" n)
      ~columns:
        [
          "eps"; "measured theta (q* ~ k^-theta)"; "90% bootstrap";
          "eps^2 candidate"; "eps candidate"; "closer to";
        ]
      ~notes:
        [
          "the paper leaves open whether the AND gain exponent is Theta(eps) or Theta(eps^2);";
          "the implemented tester follows [7], so eps^2-tracking is expected --";
          "a measured theta near eps would indicate a better tester exists";
        ]
      rows;
  ]

let experiment =
  {
    Exp.id = "T20-open-problem";
    title = "The open problem, probed";
    statement =
      "Post-Thm-1.2 remark: is the AND rule's k-exponent Theta(eps) or Theta(eps^2)?";
    run;
  }
