let targets n =
  [
    ("uniform", Dut_dist.Pmf.uniform n);
    ("zipf s=0.5", Dut_dist.Families.zipf ~n ~s:0.5);
    ("two-level", Dut_dist.Families.step ~n ~heavy_fraction:0.25 ~heavy_mass:0.5);
    ("trunc-geom", Dut_dist.Families.truncated_geometric ~n ~ratio:0.995);
  ]

let run (cfg : Config.t) =
  let rng = Config.rng cfg in
  let n, eps, trials =
    match cfg.profile with
    | Config.Fast -> (128, 0.35, 80)
    | Config.Full -> (512, 0.3, 200)
  in
  let identity_rows =
    List.map
      (fun (name, target) ->
        let reduction = Dut_testers.Identity.make ~target ~eps in
        let m_samples = Dut_testers.Identity.recommended_samples ~n ~eps in
        let sampler = Dut_dist.Sampler.of_pmf target in
        (* A trial's m_samples draws (about 28,000 in the fast
           profile) go into a borrowed buffer, not a fresh array
           straight on the major heap. *)
        let accept_on pmf_sampler r =
          let samples = Dut_engine.Scratch.borrow ~len:m_samples in
          Dut_dist.Sampler.draw_many_into pmf_sampler r samples;
          let accept = Dut_testers.Identity.test reduction target r samples in
          Dut_engine.Scratch.release samples;
          accept
        in
        let on_target =
          Dut_stats.Montecarlo.estimate_prob ~trials (Dut_prng.Rng.split rng)
            (fun r -> accept_on sampler r)
        in
        (* Fresh perturbation per trial; track the achieved distances. *)
        let achieved = ref [] in
        let on_far =
          Dut_stats.Montecarlo.estimate_prob ~trials (Dut_prng.Rng.split rng)
            (fun r ->
              let far, dist = Dut_dist.Families.perturb_pairwise r ~eps target in
              achieved := dist :: !achieved;
              not (accept_on (Dut_dist.Sampler.of_pmf far) r))
        in
        let mean_dist =
          List.fold_left ( +. ) 0. !achieved /. float_of_int (List.length !achieved)
        in
        [
          Table.Str name;
          Table.Int (Dut_testers.Identity.flattened_size reduction);
          Table.Int m_samples;
          Table.Float on_target.estimate;
          Table.Float on_far.estimate;
          Table.Float mean_dist;
          Table.Bool (on_target.estimate >= 2. /. 3. && on_far.estimate >= 2. /. 3.);
        ])
      (targets n)
  in
  let closeness_rows =
    let m = Dut_testers.Closeness.recommended_samples ~n ~eps in
    List.map
      (fun (name, target) ->
        let sampler = Dut_dist.Sampler.of_pmf target in
        (* Both m-sample draws go into borrowed buffers, ys before xs:
           the order in which these tables' streams were recorded. *)
        let closeness_accepts r xs_sampler ys_sampler =
          let xs = Dut_engine.Scratch.borrow ~len:m in
          let ys = Dut_engine.Scratch.borrow ~len:m in
          Dut_dist.Sampler.draw_many_into ys_sampler r ys;
          Dut_dist.Sampler.draw_many_into xs_sampler r xs;
          let accept = Dut_testers.Closeness.test ~n ~eps xs ys in
          Dut_engine.Scratch.release ys;
          Dut_engine.Scratch.release xs;
          accept
        in
        let equal_case =
          Dut_stats.Montecarlo.estimate_prob ~trials (Dut_prng.Rng.split rng)
            (fun r -> closeness_accepts r sampler sampler)
        in
        let far_case =
          Dut_stats.Montecarlo.estimate_prob ~trials (Dut_prng.Rng.split rng)
            (fun r ->
              let far, _ = Dut_dist.Families.perturb_pairwise r ~eps target in
              not (closeness_accepts r sampler (Dut_dist.Sampler.of_pmf far)))
        in
        [
          Table.Str name;
          Table.Int m;
          Table.Float equal_case.estimate;
          Table.Float far_case.estimate;
          Table.Bool (equal_case.estimate >= 2. /. 3. && far_case.estimate >= 2. /. 3.);
        ])
      (targets n)
  in
  [
    Table.make
      ~title:
        (Printf.sprintf
           "T12-identity: identity testing via the uniformity reduction (n=%d, eps=%.2f)"
           n eps)
      ~columns:
        [
          "target"; "flattened m"; "samples"; "accept target"; "reject far";
          "mean far l1"; "succeeds";
        ]
      ~notes:
        [
          "every verdict is produced by the plain uniformity tester on the flattened domain";
          "completeness (abstract / Goldreich [11]): one tester serves every target";
        ]
      identity_rows;
    Table.make
      ~title:
        (Printf.sprintf "T12-identity: closeness-tester baseline (n=%d, eps=%.2f)"
           n eps)
      ~columns:[ "target"; "samples each"; "accept equal"; "reject far"; "succeeds" ]
      ~notes:
        [
          "two unknown distributions: the n^(2/3) problem that contains uniformity";
        ]
      closeness_rows;
  ]

let experiment =
  {
    Exp.id = "T12-identity";
    title = "Completeness: identity testing through uniformity";
    statement =
      "Abstract / [11]: testing identity to any fixed distribution reduces to uniformity";
    run;
  }
