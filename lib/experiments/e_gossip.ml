module Cg = Dut_core.Comparison_graph

let run (cfg : Config.t) =
  let rng = Config.rng cfg in
  let ell, eps, side =
    match cfg.profile with
    | Config.Fast -> (7, 0.3, 4)
    | Config.Full -> (9, 0.25, 6)
  in
  let n = 1 lsl (ell + 1) in
  let graph = Dut_netsim.Graph.grid side side in
  let k = Dut_netsim.Graph.n graph in
  let q = 5 * int_of_float (Dut_core.Bounds.fmo_threshold_upper ~n ~k ~eps) in
  let tree =
    Dut_netsim.Local_tester.make ~graph ~n ~eps ~q
      ~calibration_trials:cfg.calibration_trials ~rng:(Dut_prng.Rng.split rng)
  in
  let tree_rounds = (2 * Dut_netsim.Local_tester.height tree) + 1 in
  (* Gossip round budget: measured mixing time to 1/(4k) tolerance on a
     worst-case half/half vote vector, doubled for margin. *)
  let gossip_rounds =
    let values = Array.init k (fun i -> if i mod 2 = 0 then 1. else 0.) in
    match
      Dut_netsim.Gossip.rounds_to_tolerance ~graph ~rng:(Dut_prng.Rng.split rng)
        ~values
        ~tol:(1. /. (4. *. float_of_int k))
        ~max_rounds:20000
    with
    | Some r -> 2 * r
    | None -> 2000
  in
  let testers =
    [
      ("AND alarm wire", Cg.tester_fixed ~n ~eps ~k ~q ~t:1 Cg.Clique, 1, k);
      ( "tree convergecast",
        (fun rng source -> (Dut_netsim.Local_tester.run tree rng source).accept),
        tree_rounds,
        2 * (k - 1) );
      ( "push-sum gossip",
        Dut_netsim.Gossip.decentralized_tester ~graph ~n ~eps ~q ~gossip_rounds
          ~calibration_trials:cfg.calibration_trials
          ~rng:(Dut_prng.Rng.split rng),
        gossip_rounds,
        k * gossip_rounds );
    ]
  in
  let rows =
    List.map
      (fun (name, tester, rounds, messages) ->
        let p =
          Dut_core.Evaluate.measure ~trials:cfg.trials
            ~rng:(Dut_prng.Rng.split rng) ~ell ~eps tester
        in
        [
          Table.Str name;
          Table.Float p.uniform_accept.estimate;
          Table.Float p.far_reject.estimate;
          Table.Int rounds;
          Table.Int messages;
          Table.Str
            (match name with
            | "AND alarm wire" -> "none (any node decides)"
            | "tree convergecast" -> "root"
            | _ -> "none (all nodes decide)");
        ])
      testers
  in
  [
    Table.make
      ~title:
        (Printf.sprintf
           "T16-gossip: aggregation mechanisms on a %dx%d grid (n=%d, q=%d, eps=%.2f)"
           side side n q eps)
      ~columns:
        [ "mechanism"; "accept uniform"; "reject far"; "rounds"; "messages"; "referee" ]
      ~notes:
        [
          "same votes, same sample budget q (5x the threshold-tester scale)";
          "AND pays in power at this q (Thm 1.2: it needs ~sqrt(n) samples);";
          "tree pays a root; gossip pays mixing-time rounds for full decentralization";
        ]
      rows;
  ]

let experiment =
  {
    Exp.id = "T16-gossip";
    title = "The aggregation spectrum: alarm wire, tree, gossip";
    statement =
      "The title question, mechanically: what locality costs at a fixed sample budget";
    run;
  }
