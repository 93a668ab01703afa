module Cg = Dut_core.Comparison_graph

(* Exactly-eps-far families over [n], each with a different l2 profile. *)
let far_families ~n ~eps rng =
  let uniform = Dut_dist.Pmf.uniform n in
  let pairwise =
    let pmf, achieved = Dut_dist.Families.perturb_pairwise rng ~eps uniform in
    ("pairwise +-eps/n (the hard profile)", pmf, achieved)
  in
  let heavy_element =
    (* (1-a) U + a delta_0 has l1 distance 2a(1-1/n); solve for a. *)
    let a = eps /. (2. *. (1. -. (1. /. float_of_int n))) in
    let pmf = Dut_dist.Pmf.mix a (Dut_dist.Pmf.point_mass ~n 0) uniform in
    ("one heavy element", pmf, Dut_dist.Distance.distance_to_uniformity pmf)
  in
  let half_shifted =
    (* First half heavier by d, second half lighter: l1 = n d; d = eps/n. *)
    let d = eps /. float_of_int n in
    let pmf =
      Dut_dist.Pmf.create
        (Array.init n (fun i ->
             if i < n / 2 then (1. /. float_of_int n) +. d
             else (1. /. float_of_int n) -. d))
    in
    ("half-universe shift", pmf, Dut_dist.Distance.distance_to_uniformity pmf)
  in
  let few_heavy =
    (* eps/2 extra mass on n/16 elements, removed from the rest. *)
    let heavy = max 1 (n / 16) in
    let add = eps /. 2. /. float_of_int heavy in
    let sub = eps /. 2. /. float_of_int (n - heavy) in
    let pmf =
      Dut_dist.Pmf.create
        (Array.init n (fun i ->
             if i < heavy then (1. /. float_of_int n) +. add
             else (1. /. float_of_int n) -. sub))
    in
    ("concentrated on n/16", pmf, Dut_dist.Distance.distance_to_uniformity pmf)
  in
  [ pairwise; heavy_element; half_shifted; few_heavy ]

let run (cfg : Config.t) =
  let rng = Config.rng cfg in
  let ell, eps, k =
    match cfg.profile with
    | Config.Fast -> (7, 0.3, 16)
    | Config.Full -> (9, 0.25, 32)
  in
  let n = 1 lsl (ell + 1) in
  let q = 5 * int_of_float (Dut_core.Bounds.fmo_threshold_upper ~n ~k ~eps) in
  let tester =
    Cg.tester_majority ~n ~eps ~k ~q
      ~calibration_trials:cfg.calibration_trials ~rng:(Dut_prng.Rng.split rng) Cg.Clique
  in
  let reject_prob pmf =
    let sampler = Dut_dist.Sampler.of_pmf pmf in
    (Dut_stats.Montecarlo.estimate_prob ~trials:cfg.trials
       (Dut_prng.Rng.split rng) (fun r ->
         not (tester r (Dut_protocol.Network.of_sampler sampler))))
      .estimate
  in
  let uniform_accept =
    (Dut_stats.Montecarlo.estimate_prob ~trials:cfg.trials
       (Dut_prng.Rng.split rng) (fun r ->
         tester r (Dut_protocol.Network.uniform_source ~n)))
      .estimate
  in
  let families = far_families ~n ~eps (Dut_prng.Rng.split rng) in
  let hard_reject =
    match families with (_, pmf, _) :: _ -> reject_prob pmf | [] -> 0.
  in
  let rows =
    List.map
      (fun (name, pmf, achieved) ->
        let reject = reject_prob pmf in
        [
          Table.Str name;
          Table.Float achieved;
          Table.Float (float_of_int n *. Dut_dist.Distance.l2_sq pmf (Dut_dist.Pmf.uniform n));
          Table.Float reject;
          Table.Bool (reject >= hard_reject -. 0.1);
        ])
      families
  in
  [
    Table.make
      ~title:
        (Printf.sprintf
           "T17-robustness: the calibrated tester vs other eps-far shapes (n=%d, k=%d, q=%d)"
           n k q)
      ~columns:
        [ "far family"; "l1 distance"; "n x l2^2 signal"; "reject prob"; ">= hard family" ]
      ~notes:
        [
          Printf.sprintf "uniform acceptance of the same tester: %.2f" uniform_accept;
          "the pairwise profile minimizes the l2 signal at fixed l1: every other";
          "shape should be rejected at least as often (worst-case adversary justified)";
        ]
      rows;
  ]

let experiment =
  {
    Exp.id = "T17-robustness";
    title = "Beyond the hard family";
    statement =
      "Section 3: the matched-pair profile is the least-l2 (hardest) eps-far shape";
    run;
  }
