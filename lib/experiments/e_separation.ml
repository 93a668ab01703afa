let run (cfg : Config.t) =
  let rng = Config.rng cfg in
  let ell, eps, trials =
    match cfg.profile with
    | Config.Fast -> (7, 0.3, 300)
    | Config.Full -> (9, 0.25, 1000)
  in
  let n = 1 lsl (ell + 1) in
  let q_star = Dut_core.Bounds.centralized ~n ~eps in
  let qs =
    List.map
      (fun frac -> max 2 (int_of_float (frac *. q_star)))
      [ 0.125; 0.25; 0.5; 1.0; 2.0 ]
  in
  let collisions_of source r q =
    float_of_int (Dut_core.Local_stat.draw_collisions ~n ~q source r)
  in
  let rows =
    List.map
      (fun q ->
        let null =
          Dut_stats.Montecarlo.estimate_mean ~trials rng (fun r ->
              collisions_of (Dut_protocol.Network.uniform_source ~n) r q)
        in
        let far =
          Dut_stats.Montecarlo.estimate_mean ~trials rng (fun r ->
              let d = Dut_dist.Paninski.random ~ell ~eps r in
              collisions_of (Dut_protocol.Network.of_paninski d) r q)
        in
        let gap = far.mean -. null.mean in
        let z = if null.std > 0. then gap /. null.std else Float.nan in
        [
          Table.Int q;
          Table.Float null.mean;
          Table.Float null.std;
          Table.Float far.mean;
          Table.Float gap;
          Table.Float z;
          Table.Float (Dut_core.Local_stat.far_mean ~n ~q ~eps -. Dut_core.Local_stat.null_mean ~n ~q);
        ])
      qs
  in
  [
    Table.make
      ~title:
        (Printf.sprintf
           "F4-separation: collision statistic under uniform vs nu_z (n=%d, eps=%.2f, q*~%.0f)"
           n eps q_star)
      ~columns:
        [ "q"; "null mean"; "null std"; "far mean"; "gap"; "gap z-score"; "theory gap" ]
      ~notes:
        [
          "the z-score crosses ~1 near q = sqrt(n)/eps^2: the centralized sample complexity";
          "theory gap = C(q,2) eps^2 / n";
        ]
      rows;
  ]

let experiment =
  {
    Exp.id = "F4-separation";
    title = "Collisions carry the signal";
    statement = "Section 3: testers gain information only by counting collisions";
    run;
  }
