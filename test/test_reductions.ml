(* Tests for the reduction layer: distribution families, the identity
   testing reduction (completeness), and the closeness tester. *)

let check_float = Alcotest.(check (float 1e-9))

(* -- Families ----------------------------------------------------------- *)

let sums_to_one p =
  let total = ref 0. in
  for i = 0 to Dut_dist.Pmf.size p - 1 do
    total := !total +. Dut_dist.Pmf.prob p i
  done;
  Float.abs (!total -. 1.) < 1e-9

let test_zipf_shape () =
  let p = Dut_dist.Families.zipf ~n:10 ~s:1. in
  Alcotest.(check bool) "sums to 1" true (sums_to_one p);
  Alcotest.(check bool) "decreasing" true
    (Dut_dist.Pmf.prob p 0 > Dut_dist.Pmf.prob p 5);
  check_float "harmonic ratio" 2.
    (Dut_dist.Pmf.prob p 0 /. Dut_dist.Pmf.prob p 1)

let test_zipf_s0_is_uniform () =
  let p = Dut_dist.Families.zipf ~n:8 ~s:0. in
  check_float "uniform at s=0" 0.125 (Dut_dist.Pmf.prob p 3)

let test_step_masses () =
  let p = Dut_dist.Families.step ~n:8 ~heavy_fraction:0.25 ~heavy_mass:0.5 in
  Alcotest.(check bool) "sums to 1" true (sums_to_one p);
  check_float "heavy element" 0.25 (Dut_dist.Pmf.prob p 0);
  check_float "light element" (0.5 /. 6.) (Dut_dist.Pmf.prob p 7)

let test_truncated_geometric () =
  let p = Dut_dist.Families.truncated_geometric ~n:6 ~ratio:0.5 in
  Alcotest.(check bool) "sums to 1" true (sums_to_one p);
  check_float "halving" 2. (Dut_dist.Pmf.prob p 0 /. Dut_dist.Pmf.prob p 1)

let test_perturb_pairwise_distance () =
  let rng = Dut_prng.Rng.create 210 in
  (* On the uniform base nothing clamps: the achieved distance is exactly
     (n/2 pairs) * 2 * eps/n = eps (for even n). *)
  let u = Dut_dist.Pmf.uniform 64 in
  for _ = 1 to 20 do
    let far, achieved = Dut_dist.Families.perturb_pairwise rng ~eps:0.3 u in
    check_float "achieved distance" 0.3 achieved;
    check_float "matches recomputation" achieved (Dut_dist.Distance.l1 far u);
    Alcotest.(check bool) "valid pmf" true (sums_to_one far)
  done

let test_perturb_pairwise_clamps () =
  let rng = Dut_prng.Rng.create 211 in
  (* A base with zero-mass elements forces clamping; achieved < eps but
     the result must still be a valid pmf at the reported distance. *)
  let base = Dut_dist.Pmf.create [| 0.5; 0.5; 0.; 0. |] in
  let far, achieved = Dut_dist.Families.perturb_pairwise rng ~eps:0.9 base in
  Alcotest.(check bool) "achieved at most eps" true (achieved <= 0.9 +. 1e-9);
  check_float "reported = actual" achieved (Dut_dist.Distance.l1 far base)

(* -- Identity ------------------------------------------------------------ *)

let test_identity_reduction_structure () =
  let target = Dut_dist.Families.zipf ~n:32 ~s:1. in
  let r = Dut_testers.Identity.make ~target ~eps:0.25 in
  let copies = Dut_testers.Identity.copies r in
  Alcotest.(check int) "granules sum to m"
    (Dut_testers.Identity.flattened_size r)
    (Array.fold_left ( + ) 0 copies);
  Alcotest.(check bool) "every element owns a granule" true
    (Array.for_all (fun c -> c >= 1) copies);
  (* m = ceil(8n/eps). *)
  Alcotest.(check int) "m value" 1024 (Dut_testers.Identity.flattened_size r)

let test_identity_map_sample_range () =
  let rng = Dut_prng.Rng.create 212 in
  let target = Dut_dist.Families.step ~n:16 ~heavy_fraction:0.5 ~heavy_mass:0.9 in
  let r = Dut_testers.Identity.make ~target ~eps:0.3 in
  let m = Dut_testers.Identity.flattened_size r in
  for _ = 1 to 2000 do
    let out = Dut_testers.Identity.map_sample r rng (Dut_prng.Rng.int rng 16) in
    if out < 0 || out >= m then Alcotest.failf "flattened sample out of range: %d" out
  done

let test_identity_flattens_target_to_uniform () =
  (* Samples from the target map to (near-)uniform on [m]: the flattened
     empirical collision rate should be ~1/m. *)
  let rng = Dut_prng.Rng.create 213 in
  let target = Dut_dist.Families.zipf ~n:16 ~s:1. in
  let r = Dut_testers.Identity.make ~target ~eps:0.4 in
  let m = Dut_testers.Identity.flattened_size r in
  let sampler = Dut_dist.Sampler.of_pmf target in
  let draws = 20000 in
  let flat =
    Array.init draws (fun _ ->
        Dut_testers.Identity.map_sample r rng (Dut_dist.Sampler.draw sampler rng))
  in
  let hist = Dut_dist.Empirical.of_samples ~n:m flat in
  let collision_rate =
    float_of_int (Dut_dist.Empirical.collision_pairs hist)
    /. (float_of_int draws *. float_of_int (draws - 1) /. 2.)
  in
  let uniform_rate = 1. /. float_of_int m in
  Alcotest.(check bool) "collision rate ~ 1/m" true
    (collision_rate < uniform_rate *. 1.05)

let test_identity_end_to_end () =
  let rng = Dut_prng.Rng.create 214 in
  let n = 64 in
  let eps = 0.4 in
  let target = Dut_dist.Families.step ~n ~heavy_fraction:0.25 ~heavy_mass:0.5 in
  let r = Dut_testers.Identity.make ~target ~eps in
  let m_samples = Dut_testers.Identity.recommended_samples ~n ~eps in
  let sampler = Dut_dist.Sampler.of_pmf target in
  let trials = 40 in
  let ok_target = ref 0 and ok_far = ref 0 in
  for _ = 1 to trials do
    let rr = Dut_prng.Rng.split rng in
    if
      Dut_testers.Identity.test r target rr
        (Dut_dist.Sampler.draw_many sampler rr m_samples)
    then incr ok_target;
    let far, _ = Dut_dist.Families.perturb_pairwise rr ~eps target in
    if
      not
        (Dut_testers.Identity.test r target rr
           (Dut_dist.Sampler.draw_many (Dut_dist.Sampler.of_pmf far) rr m_samples))
    then incr ok_far
  done;
  if float_of_int !ok_target /. float_of_int trials < 0.7 then
    Alcotest.failf "target acceptance too low (%d/%d)" !ok_target trials;
  if float_of_int !ok_far /. float_of_int trials < 0.7 then
    Alcotest.failf "far rejection too low (%d/%d)" !ok_far trials

let test_identity_errors () =
  Alcotest.check_raises "eps" (Invalid_argument "Identity.make: eps out of (0,1)")
    (fun () ->
      ignore (Dut_testers.Identity.make ~target:(Dut_dist.Pmf.uniform 4) ~eps:0.));
  let r = Dut_testers.Identity.make ~target:(Dut_dist.Pmf.uniform 4) ~eps:0.3 in
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Identity.test: target size mismatch") (fun () ->
      ignore
        (Dut_testers.Identity.test r (Dut_dist.Pmf.uniform 5)
           (Dut_prng.Rng.create 1) [| 0 |]))

(* -- Closeness ------------------------------------------------------------ *)

let test_closeness_statistic_identical_counts () =
  (* Same histograms: statistic = sum of -2x terms... with X=Y each term
     is -x-y = -2x; crafted: xs = ys -> Z = -(total of both). *)
  let xs = [| 0; 1; 2; 3 |] in
  check_float "equal samples" (-8.) (Dut_testers.Closeness.statistic ~n:4 xs xs)

let test_closeness_statistic_disjoint () =
  (* xs all on 0, ys all on 1, m each: Z = (m^2 - m) + (m^2 - m). *)
  let m = 5 in
  let xs = Array.make m 0 and ys = Array.make m 1 in
  check_float "disjoint" (2. *. float_of_int ((m * m) - m))
    (Dut_testers.Closeness.statistic ~n:4 xs ys)

let test_closeness_length_mismatch () =
  Alcotest.check_raises "lengths"
    (Invalid_argument "Closeness.statistic: sample counts differ") (fun () ->
      ignore (Dut_testers.Closeness.statistic ~n:4 [| 0 |] [| 0; 1 |]))

let test_closeness_power () =
  let rng = Dut_prng.Rng.create 215 in
  let n = 64 and eps = 0.4 in
  let m = Dut_testers.Closeness.recommended_samples ~n ~eps in
  let base = Dut_dist.Families.zipf ~n ~s:0.5 in
  let sampler = Dut_dist.Sampler.of_pmf base in
  let trials = 60 in
  let ok_equal = ref 0 and ok_far = ref 0 in
  for _ = 1 to trials do
    let r = Dut_prng.Rng.split rng in
    if
      Dut_testers.Closeness.test ~n ~eps
        (Dut_dist.Sampler.draw_many sampler r m)
        (Dut_dist.Sampler.draw_many sampler r m)
    then incr ok_equal;
    let far, _ = Dut_dist.Families.perturb_pairwise r ~eps base in
    if
      not
        (Dut_testers.Closeness.test ~n ~eps
           (Dut_dist.Sampler.draw_many sampler r m)
           (Dut_dist.Sampler.draw_many (Dut_dist.Sampler.of_pmf far) r m))
    then incr ok_far
  done;
  if float_of_int !ok_equal /. float_of_int trials < 0.7 then
    Alcotest.failf "equal acceptance too low (%d/%d)" !ok_equal trials;
  if float_of_int !ok_far /. float_of_int trials < 0.7 then
    Alcotest.failf "far rejection too low (%d/%d)" !ok_far trials

let test_closeness_contains_uniformity () =
  (* Closeness against known-uniform second samples is a uniformity
     tester (the introduction's 'special case' claim). *)
  let rng = Dut_prng.Rng.create 216 in
  let ell = 5 in
  let n = 1 lsl (ell + 1) in
  let eps = 0.4 in
  let m = Dut_testers.Closeness.recommended_samples ~n ~eps in
  let trials = 50 in
  let ok = ref 0 in
  for _ = 1 to trials do
    let r = Dut_prng.Rng.split rng in
    let d = Dut_dist.Paninski.random ~ell ~eps r in
    let unif = Array.init m (fun _ -> Dut_prng.Rng.int r n) in
    if not (Dut_testers.Closeness.test ~n ~eps (Dut_dist.Paninski.draw_many d r m) unif)
    then incr ok
  done;
  if float_of_int !ok /. float_of_int trials < 0.7 then
    Alcotest.failf "uniformity via closeness too weak (%d/%d)" !ok trials

let prop_perturb_preserves_validity =
  QCheck.Test.make ~name:"pairwise perturbation yields valid" ~count:100
    QCheck.(pair small_int (float_range 0.05 0.8))
    (fun (seed, eps) ->
      let rng = Dut_prng.Rng.create seed in
      let base = Dut_dist.Families.zipf ~n:32 ~s:1. in
      let far, achieved = Dut_dist.Families.perturb_pairwise rng ~eps base in
      achieved <= eps +. 1e-9
      && Float.abs (Dut_dist.Distance.l1 far base -. achieved) < 1e-9)

let () =
  Alcotest.run "dut_reductions"
    [
      ( "families",
        [
          Alcotest.test_case "zipf" `Quick test_zipf_shape;
          Alcotest.test_case "zipf s=0" `Quick test_zipf_s0_is_uniform;
          Alcotest.test_case "step" `Quick test_step_masses;
          Alcotest.test_case "truncated geometric" `Quick test_truncated_geometric;
          Alcotest.test_case "perturb distance" `Quick test_perturb_pairwise_distance;
          Alcotest.test_case "perturb clamps" `Quick test_perturb_pairwise_clamps;
        ] );
      ( "identity",
        [
          Alcotest.test_case "reduction structure" `Quick test_identity_reduction_structure;
          Alcotest.test_case "map sample range" `Quick test_identity_map_sample_range;
          Alcotest.test_case "flattens to uniform" `Slow
            test_identity_flattens_target_to_uniform;
          Alcotest.test_case "end to end" `Slow test_identity_end_to_end;
          Alcotest.test_case "errors" `Quick test_identity_errors;
        ] );
      ( "closeness",
        [
          Alcotest.test_case "equal histograms" `Quick
            test_closeness_statistic_identical_counts;
          Alcotest.test_case "disjoint histograms" `Quick test_closeness_statistic_disjoint;
          Alcotest.test_case "length mismatch" `Quick test_closeness_length_mismatch;
          Alcotest.test_case "power" `Slow test_closeness_power;
          Alcotest.test_case "contains uniformity" `Slow test_closeness_contains_uniformity;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_perturb_preserves_validity ] );
    ]
