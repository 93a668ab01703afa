let topologies rng k =
  let side = int_of_float (sqrt (float_of_int k)) in
  [
    ("complete", Dut_netsim.Graph.complete k);
    ("star", Dut_netsim.Graph.star k);
    ("binary tree", Dut_netsim.Graph.binary_tree k);
    (Printf.sprintf "grid %dx%d" side (k / side), Dut_netsim.Graph.grid side (k / side));
    ("cycle", Dut_netsim.Graph.cycle k);
    ("path", Dut_netsim.Graph.path k);
    ("random connected", Dut_netsim.Graph.random_connected rng ~n:k ~extra_edges:k);
  ]

let run (cfg : Config.t) =
  let rng = Config.rng cfg in
  let ell, eps, k =
    match cfg.profile with
    | Config.Fast -> (7, 0.3, 36)
    | Config.Full -> (9, 0.25, 64)
  in
  let n = 1 lsl (ell + 1) in
  let hi = 16 * int_of_float (Dut_core.Bounds.centralized ~n ~eps) in
  let rows =
    (* q* is topology-independent (same votes, different transport), so
       each topology warm-starts at the previous one's answer. The
       instrumented run at q* draws from [rng] between two searches,
       so this walks the grid itself rather than through Sweep.grid. *)
    let prev = ref None in
    List.map
      (fun (name, graph) ->
        let qstar =
          Sweep.critical cfg rng ~ell ~eps ~hi ?guess:!prev (fun q ->
              Dut_netsim.Local_tester.tester ~graph ~n ~eps ~q
                ~calibration_trials:cfg.calibration_trials
                ~rng:(Dut_prng.Rng.split rng))
        in
        if qstar <> None then prev := qstar;
        match qstar with
        | None ->
            [ Table.Str name; Table.Str "-"; Table.Str "not found"; Table.Str "-";
              Table.Str "-"; Table.Str "-"; Table.Str "-" ]
        | Some q ->
            (* One full instrumented execution at q* for the cost columns. *)
            let t =
              Dut_netsim.Local_tester.make ~graph ~n ~eps ~q
                ~calibration_trials:cfg.calibration_trials
                ~rng:(Dut_prng.Rng.split rng)
            in
            let r =
              Dut_netsim.Local_tester.run t (Dut_prng.Rng.split rng)
                (Dut_protocol.Network.uniform_source ~n)
            in
            [
              Table.Str name;
              Table.Int (Dut_netsim.Local_tester.height t);
              Table.Int q;
              Table.Int r.local_time;
              Table.Int r.messages;
              Table.Int r.max_message_bits;
              Table.Bool r.all_agree;
            ])
      (topologies (Dut_prng.Rng.split rng) k)
  in
  [
    Table.make
      ~title:
        (Printf.sprintf
           "T13-local-model: LOCAL-time decomposition across topologies (n=%d, k=%d, eps=%.2f)"
           n k eps)
      ~columns:
        [
          "topology"; "tree height"; "q*"; "local time q*+2h+1"; "messages";
          "max msg bits"; "all agree";
        ]
      ~notes:
        [
          "q* is topology-independent (same votes, different transport)";
          "local time = sampling q* + aggregation 2h+1: the path pays in rounds";
          "message counts and sizes are measured by the Sync_net simulator";
          "max msg bits <= ceil(lg(k+1)): the protocol also fits CONGEST(log n)";
        ]
      rows;
  ]

let experiment =
  {
    Exp.id = "T13-local-model";
    title = "Uniformity testing in the LOCAL model";
    statement =
      "[7]'s reduction / Section 6.2: LOCAL cost = sampling time + tree aggregation";
    run;
  }
