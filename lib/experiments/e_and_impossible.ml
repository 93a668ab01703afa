(* The strongest fixed-set strategy: every player rejects iff its single
   sample lands in a common set A. Under AND, only the per-player reject
   probability matters, so sweeping |A| covers all deterministic
   strategies; randomized local strategies are mixtures of these. *)
let and_q1_tester ~k ~set_size : Dut_core.Evaluate.tester =
  let player ~index:_ _coins samples = samples.(0) >= set_size in
  fun rng source ->
    Dut_protocol.Network.round_accept ~rng ~source ~k ~q:1 ~player
      ~rule:Dut_protocol.Rule.And

let run (cfg : Config.t) =
  let rng = Config.rng cfg in
  let ell, eps, ks =
    match cfg.profile with
    | Config.Fast -> (6, 0.4, [ 16; 128 ])
    | Config.Full -> (7, 0.3, [ 16; 128; 1024 ])
  in
  let n = 1 lsl (ell + 1) in
  let rows =
    List.concat_map
      (fun k ->
        (* Set sizes spanning expected alarm counts from far below 1 to
           well above 1. *)
        let sizes =
          [ 1; max 1 (n / (4 * k)); n / k; 2 * n / k; 4 * n / k; n / 4 ]
          |> List.filter (fun s -> s >= 1 && s <= n / 2)
          |> List.sort_uniq compare
        in
        List.map
          (fun set_size ->
            let tester = and_q1_tester ~k ~set_size in
            let p =
              Dut_core.Evaluate.measure ~trials:cfg.trials
                ~rng:(Dut_prng.Rng.split rng) ~ell ~eps tester
            in
            let ua = p.uniform_accept.estimate and fr = p.far_reject.estimate in
            [
              Table.Int k;
              Table.Int set_size;
              Table.Float (float_of_int (k * set_size) /. float_of_int n);
              Table.Float ua;
              Table.Float fr;
              Table.Float (Float.min ua fr);
              Table.Bool (Float.min ua fr >= 2. /. 3.);
            ])
          sizes)
      ks
  in
  [
    Table.make
      ~title:
        (Printf.sprintf
           "T9-and-impossible: AND rule with q=1 never tests (n=%d, eps=%.2f)" n
           eps)
      ~columns:
        [
          "k"; "|A|"; "expected alarms"; "accept uniform"; "reject far"; "min";
          "succeeds";
        ]
      ~notes:
        [
          "players reject iff their sample lands in a set A of the given size";
          "no row should succeed (min < 2/3), at any k or |A|";
          "contrast: the same rule with q > 1 succeeds in experiment T2";
        ]
      rows;
  ]

let experiment =
  {
    Exp.id = "T9-and-impossible";
    title = "AND rule with a single sample is impossible";
    statement = "Section 6.3 remark: q > 1 is necessary for AND-rule testing";
    run;
  }
