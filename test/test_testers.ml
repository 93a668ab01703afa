(* Tests for dut_testers' centralized collision tester: statistics on
   crafted inputs, cutoff algebra, and end-to-end power on the hard
   family. *)

let check_float = Alcotest.(check (float 1e-9))

(* -- Collision -------------------------------------------------------- *)

let test_collision_statistic () =
  Alcotest.(check int) "no collisions" 0
    (Dut_testers.Collision.statistic [| 0; 1; 2; 3 |] ~n:4);
  Alcotest.(check int) "one pair" 1
    (Dut_testers.Collision.statistic [| 0; 1; 0; 3 |] ~n:4);
  (* 3 equal values = C(3,2) = 3 pairs. *)
  Alcotest.(check int) "triple" 3
    (Dut_testers.Collision.statistic [| 2; 2; 2 |] ~n:4);
  Alcotest.(check int) "empty" 0 (Dut_testers.Collision.statistic [||] ~n:4)

let test_collision_expectations () =
  check_float "uniform mean" (45. /. 100.)
    (Dut_testers.Collision.expected_uniform ~n:100 ~m:10);
  check_float "far mean"
    (45. *. 1.09 /. 100.)
    (Dut_testers.Collision.expected_far ~n:100 ~m:10 ~eps:0.3);
  Alcotest.(check bool) "cutoff between" true
    (Dut_testers.Collision.cutoff ~n:100 ~m:10 ~eps:0.3
     > Dut_testers.Collision.expected_uniform ~n:100 ~m:10
    && Dut_testers.Collision.cutoff ~n:100 ~m:10 ~eps:0.3
       < Dut_testers.Collision.expected_far ~n:100 ~m:10 ~eps:0.3)

let power_check ?(ell = 5) name test_fn recommended =
  (* Generic end-to-end power check for a centralized tester at its
     recommended sample count. *)
  let n = 1 lsl (ell + 1) in
  let eps = 0.3 in
  let m = recommended ~n ~eps in
  let rng = Dut_prng.Rng.create 90 in
  let trials = 120 in
  let ok_unif = ref 0 and ok_far = ref 0 in
  for _ = 1 to trials do
    let r = Dut_prng.Rng.split rng in
    let unif = Array.init m (fun _ -> Dut_prng.Rng.int r n) in
    if test_fn ~n ~eps unif then incr ok_unif;
    let d = Dut_dist.Paninski.random ~ell ~eps r in
    if not (test_fn ~n ~eps (Dut_dist.Paninski.draw_many d r m)) then incr ok_far
  done;
  let fu = float_of_int !ok_unif /. float_of_int trials in
  let ff = float_of_int !ok_far /. float_of_int trials in
  if fu < 0.7 then Alcotest.failf "%s: uniform acceptance too low (%.2f)" name fu;
  if ff < 0.7 then Alcotest.failf "%s: far rejection too low (%.2f)" name ff

let test_collision_power () =
  power_check "collision" Dut_testers.Collision.test
    Dut_testers.Collision.recommended_samples

let test_collision_accepts_uniform_small () =
  (* Deterministic: all-distinct samples always accept. *)
  Alcotest.(check bool) "distinct accept" true
    (Dut_testers.Collision.test ~n:100 ~eps:0.3 (Array.init 10 Fun.id))

(* -- Cross-tester sanity ----------------------------------------------- *)

let test_recommended_samples_scale_with_n () =
  Alcotest.(check bool) "monotone in n" true
    (Dut_testers.Collision.recommended_samples ~n:1024 ~eps:0.3
    > Dut_testers.Collision.recommended_samples ~n:256 ~eps:0.3)

let test_recommended_samples_scale_with_eps () =
  Alcotest.(check bool) "monotone in 1/eps" true
    (Dut_testers.Collision.recommended_samples ~n:1024 ~eps:0.1
    > Dut_testers.Collision.recommended_samples ~n:1024 ~eps:0.4)

let prop_collision_statistic_vs_local_stat =
  (* Two independent implementations (histogram-based and sort-based)
     must agree. *)
  QCheck.Test.make ~name:"collision statistic = sort-based count" ~count:300
    QCheck.(list_of_size (Gen.int_range 0 30) (int_bound 15))
    (fun samples ->
      let a = Array.of_list samples in
      Dut_testers.Collision.statistic a ~n:16 = Dut_core.Local_stat.collisions a)

let () =
  Alcotest.run "dut_testers"
    [
      ( "collision",
        [
          Alcotest.test_case "statistic" `Quick test_collision_statistic;
          Alcotest.test_case "expectations" `Quick test_collision_expectations;
          Alcotest.test_case "power" `Slow test_collision_power;
          Alcotest.test_case "accepts distinct" `Quick test_collision_accepts_uniform_small;
        ] );
      ( "cross",
        [
          Alcotest.test_case "scale with n" `Quick test_recommended_samples_scale_with_n;
          Alcotest.test_case "scale with eps" `Quick test_recommended_samples_scale_with_eps;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_collision_statistic_vs_local_stat ] );
    ]
