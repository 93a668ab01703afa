(* Tests for dut_core: the bound formulas, the local statistic, every
   distributed tester (construction, errors, end-to-end power), the
   learning protocol, and the evaluation harness. *)

let check_float = Alcotest.(check (float 1e-9))
let check_float_loose = Alcotest.(check (float 1e-6))

(* -- Bounds ----------------------------------------------------------- *)

let test_centralized_bound () =
  check_float "sqrt(n)/e^2" 1024. (Dut_core.Bounds.centralized ~n:4096 ~eps:0.25)

let test_thm11 () =
  check_float "sqrt(n/k)/e^2" 128.
    (Dut_core.Bounds.thm11_lower ~n:4096 ~k:64 ~eps:0.25);
  Alcotest.(check bool) "applies for small k" true
    (Dut_core.Bounds.thm11_applies ~n:4096 ~k:64 ~eps:0.25);
  Alcotest.(check bool) "fails for huge k" false
    (Dut_core.Bounds.thm11_applies ~n:64 ~k:100000 ~eps:0.25)

let test_thm61_min_form () =
  (* For k <= n the sqrt branch is active; beyond, the linear branch. *)
  let small_k = Dut_core.Bounds.thm61_lower ~n:1024 ~k:16 ~eps:0.5 in
  check_float "sqrt branch" (8. /. 0.25) small_k;
  let large_k = Dut_core.Bounds.thm61_lower ~n:16 ~k:256 ~eps:0.5 in
  check_float "linear branch" (16. /. 256. /. 0.25) large_k

let test_thm12 () =
  (* k = 1: centralized. *)
  check_float "k=1" (Dut_core.Bounds.centralized ~n:1024 ~eps:0.25)
    (Dut_core.Bounds.thm12_and_lower ~n:1024 ~k:1 ~eps:0.25);
  (* k = 16: sqrt(n)/(16 e^2). *)
  check_float "k=16" (32. /. 16. /. 0.0625)
    (Dut_core.Bounds.thm12_and_lower ~n:1024 ~k:16 ~eps:0.25);
  Alcotest.(check bool) "applies" true
    (Dut_core.Bounds.thm12_applies ~k:16 ~eps:0.1 ~c:1.);
  Alcotest.(check bool) "does not apply" false
    (Dut_core.Bounds.thm12_applies ~k:(1 lsl 30) ~eps:0.5 ~c:1.)

let test_thm13_decreasing_in_t () =
  let b t = Dut_core.Bounds.thm13_threshold_lower ~n:4096 ~k:64 ~eps:0.25 ~t in
  Alcotest.(check bool) "1/T shape" true (b 1 > b 2 && b 2 > b 8);
  check_float "exact factor" (b 1 /. 4.) (b 4)

let test_thm14 () =
  check_float "n^2/q^2" 16384. (Dut_core.Bounds.thm14_learning_nodes ~n:1024 ~q:8)

let test_thm64_halves_per_bit_squared () =
  let b r = Dut_core.Bounds.thm64_rbit_lower ~n:65536 ~k:4 ~eps:0.5 ~r in
  (* In the sqrt branch each bit buys a sqrt(2) factor. *)
  check_float_loose "sqrt(2) per bit" (b 1 /. sqrt 2.) (b 2)

let test_fmo_upper_bounds () =
  Alcotest.(check bool) "threshold tester beats AND tester" true
    (Dut_core.Bounds.fmo_threshold_upper ~n:4096 ~k:64 ~eps:0.25
    < Dut_core.Bounds.fmo_and_upper ~n:4096 ~k:64 ~eps:0.25);
  check_float "threshold matches thm11"
    (Dut_core.Bounds.thm11_lower ~n:4096 ~k:64 ~eps:0.25)
    (Dut_core.Bounds.fmo_threshold_upper ~n:4096 ~k:64 ~eps:0.25)

let test_act_bounds () =
  check_float "single sample" (1024. /. (2. *. 0.0625))
    (Dut_core.Bounds.act_single_sample_nodes ~n:1024 ~eps:0.25 ~bits:2);
  Alcotest.(check bool) "learning needs more nodes" true
    (Dut_core.Bounds.act_learning_nodes ~n:1024 ~eps:0.25 ~bits:2
    > Dut_core.Bounds.act_single_sample_nodes ~n:1024 ~eps:0.25 ~bits:2)

let test_l2_norm () =
  check_float "3-4-5" 5. (Dut_core.Bounds.l2_norm [| 3.; 4. |]);
  check_float "uniform rates" 8. (Dut_core.Bounds.l2_norm (Array.make 64 1.))

let test_async_bound_depends_only_on_norm () =
  let a = Dut_core.Bounds.async_time_lower ~n:4096 ~eps:0.25 ~rates:(Array.make 64 1.) in
  let b =
    Dut_core.Bounds.async_time_lower ~n:4096 ~eps:0.25 ~rates:(Array.make 16 2.)
  in
  check_float "norm is sufficient statistic" a b

let test_lemma_rhs_monotonicity () =
  (* All lemma bounds grow with var(G) and with q. *)
  let l51 v = Dut_core.Bounds.lemma51_rhs ~q:10 ~n:1024 ~eps:0.25 ~var_g:v in
  Alcotest.(check bool) "51 monotone in var" true (l51 0.1 < l51 0.2);
  let l42 q = Dut_core.Bounds.lemma42_rhs ~q ~n:1024 ~eps:0.25 ~var_g:0.25 in
  Alcotest.(check bool) "42 monotone in q" true (l42 5 < l42 50);
  Alcotest.(check bool) "51 applies small q" true
    (Dut_core.Bounds.lemma51_applies ~q:10 ~n:1024 ~eps:0.25);
  Alcotest.(check bool) "51 fails huge q" false
    (Dut_core.Bounds.lemma51_applies ~q:10000 ~n:1024 ~eps:0.25)

let test_lemma43_applies () =
  Alcotest.(check bool) "applies" true
    (Dut_core.Bounds.lemma43_applies ~q:2 ~n:4096 ~eps:0.1 ~m:1);
  Alcotest.(check bool) "fails for large m" false
    (Dut_core.Bounds.lemma43_applies ~q:100 ~n:4096 ~eps:0.3 ~m:5)

let test_asymmetric_divergence_requirement () =
  (* Symmetric case is finite and positive; pushing delta1 to 0 raises
     the requirement (one-sided testers pay). *)
  let sym =
    Dut_core.Bounds.asymmetric_divergence_requirement ~k:4 ~delta1:(1. /. 3.)
      ~delta0:(1. /. 3.)
  in
  Alcotest.(check bool) "positive" true (sym > 0.);
  let one_sided =
    Dut_core.Bounds.asymmetric_divergence_requirement ~k:4 ~delta1:0.001
      ~delta0:(1. /. 3.)
  in
  Alcotest.(check bool) "one-sided needs more" true (one_sided > sym)

let test_divergence_formulas_match_info () =
  check_float "budget = info module"
    (Dut_info.Divergence.divergence_budget_bound ~q:20 ~n:1024 ~eps:0.25)
    (Dut_core.Bounds.divergence_budget ~q:20 ~n:1024 ~eps:0.25);
  check_float "requirement = info module"
    (Dut_info.Divergence.required_divergence_per_player ~k:8 ~delta:0.25)
    (Dut_core.Bounds.divergence_requirement ~k:8 ~delta:0.25)

(* -- Local_stat ------------------------------------------------------- *)

let test_collisions_crafted () =
  Alcotest.(check int) "empty" 0 (Dut_core.Local_stat.collisions [||]);
  Alcotest.(check int) "distinct" 0 (Dut_core.Local_stat.collisions [| 3; 1; 2 |]);
  Alcotest.(check int) "pair" 1 (Dut_core.Local_stat.collisions [| 5; 5 |]);
  Alcotest.(check int) "two pairs" 2 (Dut_core.Local_stat.collisions [| 1; 2; 1; 2 |]);
  Alcotest.(check int) "quadruple" 6 (Dut_core.Local_stat.collisions [| 9; 9; 9; 9 |])

let test_cutoff_ordering () =
  let n = 1024 and q = 100 and eps = 0.3 in
  Alcotest.(check bool) "null < midpoint < far" true
    (Dut_core.Local_stat.null_mean ~n ~q < Dut_core.Local_stat.midpoint_cutoff ~n ~q ~eps
    && Dut_core.Local_stat.midpoint_cutoff ~n ~q ~eps
       < Dut_core.Local_stat.far_mean ~n ~q ~eps)

let test_alarm_cutoff_monotone_in_level () =
  let n = 1024 and q = 200 in
  Alcotest.(check bool) "rarer alarms need higher cutoffs" true
    (Dut_core.Local_stat.alarm_cutoff ~n ~q ~false_alarm:0.001
    >= Dut_core.Local_stat.alarm_cutoff ~n ~q ~false_alarm:0.1)

let test_alarm_cutoff_calibrated_beyond_poisson () =
  (* In the q > n regime the cutoff's skew correction must keep the
     empirical false-alarm near (and not far above) the target. *)
  let n = 256 and q = 1024 in
  let target = 0.05 in
  let cutoff = Dut_core.Local_stat.alarm_cutoff ~n ~q ~false_alarm:target in
  let rng = Dut_prng.Rng.create 149 in
  let trials = 3000 in
  let alarms = ref 0 in
  for _ = 1 to trials do
    let samples = Array.init q (fun _ -> Dut_prng.Rng.int rng n) in
    if Dut_core.Local_stat.collisions samples >= cutoff then incr alarms
  done;
  let rate = float_of_int !alarms /. float_of_int trials in
  if rate > 1.6 *. target then
    Alcotest.failf "false alarm %.3f far above target %.3f" rate target;
  if rate < target /. 4. then
    Alcotest.failf "false alarm %.3f far below target %.3f (cutoff too deep)" rate
      target

let test_votes () =
  let n = 1024 and q = 50 and eps = 0.3 in
  (* No collisions: always accept. *)
  Alcotest.(check bool) "distinct accepts (midpoint)" true
    (Dut_core.Local_stat.vote_midpoint ~n ~q ~eps (Array.init q Fun.id));
  Alcotest.(check bool) "distinct accepts (alarm)" true
    (Dut_core.Local_stat.vote_alarm ~n ~q ~false_alarm:0.01 (Array.init q Fun.id));
  (* All-equal samples: reject under both. *)
  Alcotest.(check bool) "constant rejects (midpoint)" false
    (Dut_core.Local_stat.vote_midpoint ~n ~q ~eps (Array.make q 7));
  Alcotest.(check bool) "constant rejects (alarm)" false
    (Dut_core.Local_stat.vote_alarm ~n ~q ~false_alarm:0.01 (Array.make q 7))

(* -- Evaluate --------------------------------------------------------- *)

let perfect_tester rng source =
  (* Accepts iff the source is statistically uniform; we fake it with an
     oracle that inspects a large sample's collision count. *)
  let n = 64 in
  let samples = Array.init 2000 (fun _ -> source rng) in
  Dut_testers.Collision.test ~n ~eps:0.3 samples

let test_measure_oracle () =
  let rng = Dut_prng.Rng.create 120 in
  let p = Dut_core.Evaluate.measure ~trials:60 ~rng ~ell:5 ~eps:0.3 perfect_tester in
  Alcotest.(check bool) "oracle accepts uniform" true
    (p.uniform_accept.estimate > 0.9);
  Alcotest.(check bool) "oracle rejects far" true (p.far_reject.estimate > 0.9)

let test_measure_deterministic () =
  let run () =
    let rng = Dut_prng.Rng.create 121 in
    let p = Dut_core.Evaluate.measure ~trials:40 ~rng ~ell:4 ~eps:0.3 perfect_tester in
    (p.uniform_accept.estimate, p.far_reject.estimate)
  in
  Alcotest.(check bool) "same seed, same measurement" true (run () = run ())

let test_succeeds_levels () =
  let rng = Dut_prng.Rng.create 122 in
  Alcotest.(check bool) "oracle succeeds at 0.75" true
    (Dut_core.Evaluate.succeeds ~trials:60 ~level:0.75 ~rng ~ell:5 ~eps:0.3
       perfect_tester)

let test_critical_q_synthetic () =
  (* A synthetic tester that succeeds exactly when q >= 37. *)
  let rng = Dut_prng.Rng.create 123 in
  let make q rng source =
    if q >= 37 then begin
      (* behave like the oracle *)
      let samples = Array.init 2000 (fun _ -> source rng) in
      Dut_testers.Collision.test ~n:64 ~eps:0.3 samples
    end
    else Dut_prng.Rng.bool rng
  in
  match
    Dut_core.Evaluate.critical_q ~trials:50 ~level:0.75 ~rng ~ell:5 ~eps:0.3
      ~hi:1000 make
  with
  | Some q -> Alcotest.(check int) "finds 37" 37 q
  | None -> Alcotest.fail "critical q not found"

(* -- The AND tester: the clique at reject threshold 1 ----------------- *)

module Cg = Dut_core.Comparison_graph

let and_tester ~n ~eps ~k ~q = Cg.tester_fixed ~n ~eps ~k ~q ~t:1 Cg.Clique

(* Constructing a tester validates its parameters. *)
let build (_ : Dut_core.Evaluate.tester) = ()

let test_and_tester_errors () =
  Alcotest.check_raises "bad eps" (Invalid_argument "Comparison_graph: eps out of (0,1)")
    (fun () -> build (and_tester ~n:64 ~eps:1.5 ~k:4 ~q:10));
  Alcotest.check_raises "bad sizes" (Invalid_argument "Comparison_graph: bad sizes")
    (fun () -> build (and_tester ~n:64 ~eps:0.3 ~k:0 ~q:10))

let test_and_tester_cutoff_grows_with_k () =
  (* More players -> rarer per-player alarms -> higher cutoffs: the
     AND tester's alarm cutoff at its false-alarm level. *)
  let cutoff k =
    Cg.alarm_cutoff ~n:1024 (Cg.build ~q:300 Cg.Clique)
      ~false_alarm:(Dut_stats.Tail.binomial_max_p ~k ~t:1 ~level:0.18)
  in
  Alcotest.(check bool) "monotone" true (cutoff 4 <= cutoff 64 && cutoff 64 <= cutoff 1024)

let test_and_tester_power () =
  let ell = 5 in
  let n = 1 lsl (ell + 1) in
  let eps = 0.3 in
  let q = 3 * int_of_float (Dut_core.Bounds.centralized ~n ~eps) in
  let rng = Dut_prng.Rng.create 124 in
  let p =
    Dut_core.Evaluate.measure ~trials:80 ~rng ~ell ~eps
      (and_tester ~n ~eps ~k:8 ~q)
  in
  Alcotest.(check bool) "uniform accepted" true (p.uniform_accept.estimate >= 0.7);
  Alcotest.(check bool) "far rejected" true (p.far_reject.estimate >= 0.7)

(* -- Threshold testers: the clique under a reject-count referee ------- *)

let test_threshold_fixed_errors () =
  Alcotest.check_raises "t out of range"
    (Invalid_argument "Comparison_graph.tester_fixed: t outside [1,k]") (fun () ->
      build (Cg.tester_fixed ~n:64 ~eps:0.3 ~k:4 ~q:10 ~t:5 Cg.Clique))

let test_threshold_fixed_referee_cutoff () =
  (* A source that hands the first [alarms] players q equal samples (a
     certain alarm) and every later player q distinct ones (a certain
     accept): players draw their tuples in index order. At t = 3 the
     referee rejects exactly when three or more players alarm. *)
  let q = 10 and k = 8 in
  let tester = Cg.tester_fixed ~n:64 ~eps:0.3 ~k ~q ~t:3 Cg.Clique in
  let accepts alarms =
    let draws = ref 0 in
    let source _coins =
      let i = !draws in
      incr draws;
      if i / q < alarms then 0 else i mod q
    in
    tester (Dut_prng.Rng.create 3) source
  in
  Alcotest.(check (list bool))
    "rejects from 3 alarms on" [ true; true; true; false; false ]
    (List.map accepts [ 0; 1; 2; 3; 8 ])

let test_threshold_majority_power () =
  let ell = 5 in
  let n = 1 lsl (ell + 1) in
  let eps = 0.3 in
  let k = 16 in
  let q = 3 * int_of_float (Dut_core.Bounds.fmo_threshold_upper ~n ~k ~eps) in
  let rng = Dut_prng.Rng.create 125 in
  let tester =
    Cg.tester_majority ~n ~eps ~k ~q ~calibration_trials:200
      ~rng:(Dut_prng.Rng.split rng) Cg.Clique
  in
  let p = Dut_core.Evaluate.measure ~trials:80 ~rng ~ell ~eps tester in
  Alcotest.(check bool) "uniform accepted" true (p.uniform_accept.estimate >= 0.7);
  Alcotest.(check bool) "far rejected" true (p.far_reject.estimate >= 0.7)

let test_threshold_uses_fewer_samples_than_and () =
  (* The headline contrast of the paper, as a concrete pair of runs:
     at q = fmo_threshold_upper scale, majority works but AND does not
     reject far inputs reliably for moderate k. *)
  let ell = 6 in
  let n = 1 lsl (ell + 1) in
  let eps = 0.3 in
  let k = 32 in
  let q = 6 * int_of_float (Dut_core.Bounds.fmo_threshold_upper ~n ~k ~eps) in
  let rng = Dut_prng.Rng.create 126 in
  let majority =
    Cg.tester_majority ~n ~eps ~k ~q ~calibration_trials:200
      ~rng:(Dut_prng.Rng.split rng) Cg.Clique
  in
  let and_t = and_tester ~n ~eps ~k ~q in
  let pm = Dut_core.Evaluate.measure ~trials:60 ~rng ~ell ~eps majority in
  let pa = Dut_core.Evaluate.measure ~trials:60 ~rng ~ell ~eps and_t in
  Alcotest.(check bool) "majority works here" true
    (Float.min pm.uniform_accept.estimate pm.far_reject.estimate >= 0.7);
  Alcotest.(check bool) "AND needs more samples" true
    (Float.min pa.uniform_accept.estimate pa.far_reject.estimate
    < Float.min pm.uniform_accept.estimate pm.far_reject.estimate)

(* -- Rbit_tester ------------------------------------------------------- *)

let test_rbit_errors () =
  let rng = Dut_prng.Rng.create 127 in
  Alcotest.check_raises "bits range"
    (Invalid_argument "Rbit_tester.make: bits outside [1,16]") (fun () ->
      ignore
        (Dut_core.Rbit_tester.make ~n:64 ~eps:0.3 ~k:4 ~q:10 ~bits:0
           ~calibration_trials:10 ~rng))

let test_rbit_quantize_range () =
  let rng = Dut_prng.Rng.create 128 in
  let t =
    Dut_core.Rbit_tester.make ~n:1024 ~eps:0.3 ~k:8 ~q:100 ~bits:3
      ~calibration_trials:50 ~rng
  in
  for count = 0 to 100 do
    let m = Dut_core.Rbit_tester.quantize t count in
    if m < 0 || m >= 8 then Alcotest.failf "quantize out of range: %d" m
  done;
  (* Monotone in the count. *)
  Alcotest.(check bool) "monotone" true
    (Dut_core.Rbit_tester.quantize t 0 <= Dut_core.Rbit_tester.quantize t 50)

let test_rbit_power () =
  let ell = 5 in
  let n = 1 lsl (ell + 1) in
  let eps = 0.3 in
  let k = 16 in
  let q = 3 * int_of_float (Dut_core.Bounds.fmo_threshold_upper ~n ~k ~eps) in
  let rng = Dut_prng.Rng.create 129 in
  let tester =
    Dut_core.Rbit_tester.tester ~n ~eps ~k ~q ~bits:3 ~calibration_trials:200
      ~rng:(Dut_prng.Rng.split rng)
  in
  let p = Dut_core.Evaluate.measure ~trials:80 ~rng ~ell ~eps tester in
  Alcotest.(check bool) "works at threshold-tester scale" true
    (Float.min p.uniform_accept.estimate p.far_reject.estimate >= 0.7)

(* -- Single_sample ------------------------------------------------------ *)

let test_single_sample_errors () =
  Alcotest.check_raises "too many buckets"
    (Invalid_argument "Single_sample.make: more buckets than elements") (fun () ->
      ignore (Dut_core.Single_sample.make ~n:8 ~eps:0.3 ~k:100 ~bits:4))

let test_single_sample_expectations () =
  let t = Dut_core.Single_sample.make ~n:64 ~eps:0.3 ~k:100 ~bits:3 in
  Alcotest.(check bool) "far mean above uniform mean" true
    (Dut_core.Single_sample.expected_far t > Dut_core.Single_sample.expected_uniform t);
  Alcotest.(check bool) "cutoff between" true
    (Dut_core.Single_sample.cutoff t > Dut_core.Single_sample.expected_uniform t
    && Dut_core.Single_sample.cutoff t < Dut_core.Single_sample.expected_far t)

let test_single_sample_power () =
  let ell = 5 in
  let n = 1 lsl (ell + 1) in
  let eps = 0.4 in
  let rng = Dut_prng.Rng.create 130 in
  let k = 12 * int_of_float (Dut_core.Bounds.act_single_sample_nodes ~n ~eps ~bits:4) in
  let p =
    Dut_core.Evaluate.measure ~trials:80 ~rng ~ell ~eps
      (Dut_core.Single_sample.tester ~n ~eps ~k ~bits:4)
  in
  Alcotest.(check bool) "single-sample protocol works" true
    (Float.min p.uniform_accept.estimate p.far_reject.estimate >= 0.7)

(* -- Async_tester -------------------------------------------------------- *)

let test_async_sample_counts () =
  let rng = Dut_prng.Rng.create 131 in
  let t =
    Dut_core.Async_tester.make ~n:64 ~eps:0.3 ~rates:[| 1.; 2.; 0.5 |] ~tau:10.
      ~calibration_trials:20 ~rng
  in
  Alcotest.(check (array int)) "q_i = ceil(rate*tau)" [| 10; 20; 5 |]
    (Dut_core.Async_tester.sample_counts t)

let test_async_errors () =
  let rng = Dut_prng.Rng.create 132 in
  Alcotest.check_raises "zero rate" (Invalid_argument "Async_tester.make: rate <= 0")
    (fun () ->
      ignore
        (Dut_core.Async_tester.make ~n:64 ~eps:0.3 ~rates:[| 1.; 0. |] ~tau:5.
           ~calibration_trials:10 ~rng))

let test_async_power () =
  let ell = 5 in
  let n = 1 lsl (ell + 1) in
  let eps = 0.3 in
  let rng = Dut_prng.Rng.create 133 in
  let rates = Array.make 16 1. in
  let tau = 3. *. Dut_core.Bounds.async_time_lower ~n ~eps ~rates in
  let tester =
    Dut_core.Async_tester.tester ~n ~eps ~rates ~tau ~calibration_trials:200
      ~rng:(Dut_prng.Rng.split rng)
  in
  let p = Dut_core.Evaluate.measure ~trials:80 ~rng ~ell ~eps tester in
  Alcotest.(check bool) "async tester works" true
    (Float.min p.uniform_accept.estimate p.far_reject.estimate >= 0.7)

(* -- Learning ------------------------------------------------------------ *)

let test_learning_errors () =
  Alcotest.check_raises "k < n"
    (Invalid_argument "Learning.make: need at least one watcher per element")
    (fun () -> ignore (Dut_core.Learning.make ~n:64 ~k:32 ~q:1))

let test_learning_recovers_point_mass_shape () =
  (* With many watchers, a heavily biased distribution should be learned
     closely. *)
  let n = 8 in
  let truth = Dut_dist.Pmf.create [| 0.3; 0.1; 0.1; 0.1; 0.1; 0.1; 0.1; 0.1 |] in
  let rng = Dut_prng.Rng.create 134 in
  let t = Dut_core.Learning.make ~n ~k:(n * 4000) ~q:2 in
  let err = Dut_core.Learning.l1_error t rng ~truth in
  Alcotest.(check bool) "small l1 error" true (err < 0.1)

let test_learning_error_decreases_with_k () =
  let n = 16 in
  let truth = Dut_dist.Pmf.uniform 16 in
  let rng = Dut_prng.Rng.create 135 in
  let mean_err k =
    (Dut_core.Learning.mean_l1_error ~trials:10 ~rng ~n ~k ~q:2 ~truth).mean
  in
  Alcotest.(check bool) "more nodes, less error" true
    (mean_err (n * 2000) < mean_err (n * 20))

let test_learning_estimate_is_pmf () =
  let rng = Dut_prng.Rng.create 136 in
  let t = Dut_core.Learning.make ~n:8 ~k:64 ~q:3 in
  let est =
    Dut_core.Learning.estimate t rng (Dut_protocol.Network.uniform_source ~n:8)
  in
  let total = ref 0. in
  for i = 0 to 7 do
    total := !total +. Dut_dist.Pmf.prob est i
  done;
  check_float_loose "normalized" 1. !total

(* -- Crash_tester ------------------------------------------------------------ *)

let test_crash_tester_errors () =
  let rng = Dut_prng.Rng.create 150 in
  Alcotest.check_raises "crash prob"
    (Invalid_argument "Crash_tester.make: crash probability out of [0,1)")
    (fun () ->
      ignore
        (Dut_core.Crash_tester.make ~n:64 ~eps:0.3 ~k:8 ~q:10 ~crash_prob:1.
           ~calibration_trials:10 ~rng))

let test_crash_cutoff_scales_with_live () =
  let rng = Dut_prng.Rng.create 151 in
  let t =
    Dut_core.Crash_tester.make ~n:1024 ~eps:0.3 ~k:64 ~q:200 ~crash_prob:0.2
      ~calibration_trials:100 ~rng
  in
  Alcotest.(check bool) "more live players, higher count cutoff" true
    (Dut_core.Crash_tester.reject_cutoff t ~live:64
    >= Dut_core.Crash_tester.reject_cutoff t ~live:16);
  Alcotest.(check bool) "cutoff within range" true
    (Dut_core.Crash_tester.reject_cutoff t ~live:10 <= 11)

let test_crash_zero_matches_plain_power () =
  (* At crash_prob = 0 the crash tester is a plain calibrated tester. *)
  let ell = 5 in
  let n = 1 lsl (ell + 1) in
  let eps = 0.3 in
  let k = 16 in
  let q = 5 * int_of_float (Dut_core.Bounds.fmo_threshold_upper ~n ~k ~eps) in
  let rng = Dut_prng.Rng.create 152 in
  let tester =
    Dut_core.Crash_tester.tester ~n ~eps ~k ~q ~crash_prob:0.
      ~calibration_trials:150 ~rng:(Dut_prng.Rng.split rng)
  in
  let p = Dut_core.Evaluate.measure ~trials:80 ~rng ~ell ~eps tester in
  Alcotest.(check bool) "works crash-free" true
    (Float.min p.uniform_accept.estimate p.far_reject.estimate >= 0.7)

let test_crash_half_fleet_still_works () =
  let ell = 5 in
  let n = 1 lsl (ell + 1) in
  let eps = 0.3 in
  let k = 32 in
  let q = 6 * int_of_float (Dut_core.Bounds.fmo_threshold_upper ~n ~k ~eps) in
  let rng = Dut_prng.Rng.create 153 in
  let tester =
    Dut_core.Crash_tester.tester ~n ~eps ~k ~q ~crash_prob:0.5
      ~calibration_trials:150 ~rng:(Dut_prng.Rng.split rng)
  in
  let p = Dut_core.Evaluate.measure ~trials:80 ~rng ~ell ~eps tester in
  Alcotest.(check bool)
    (Printf.sprintf "survives 50%% crashes (unif %.2f far %.2f)"
       p.uniform_accept.estimate p.far_reject.estimate)
    true
    (Float.min p.uniform_accept.estimate p.far_reject.estimate >= 0.65)

(* -- Byzantine_tester --------------------------------------------------------- *)

let test_byzantine_errors () =
  let rng = Dut_prng.Rng.create 154 in
  Alcotest.check_raises "too many liars"
    (Invalid_argument "Byzantine_tester.make: byzantine outside [0, k/2)")
    (fun () ->
      ignore
        (Dut_core.Byzantine_tester.make ~n:64 ~eps:0.3 ~k:8 ~q:10 ~byzantine:4
           ~calibration_trials:10 ~rng))

let test_byzantine_safety_under_framing () =
  (* Push_reject liars try to frame a uniform stream; the hardened
     referee must keep accepting. *)
  let ell = 5 in
  let n = 1 lsl (ell + 1) in
  let eps = 0.3 in
  let k = 32 in
  let q = 6 * int_of_float (Dut_core.Bounds.fmo_threshold_upper ~n ~k ~eps) in
  let rng = Dut_prng.Rng.create 155 in
  List.iter
    (fun b ->
      let t =
        Dut_core.Byzantine_tester.make ~n ~eps ~k ~q ~byzantine:b
          ~calibration_trials:150 ~rng:(Dut_prng.Rng.split rng)
      in
      let accepts = ref 0 in
      let trials = 80 in
      for _ = 1 to trials do
        if
          Dut_core.Byzantine_tester.accepts t
            ~adversary:Dut_core.Byzantine_tester.Push_reject ~truth_is_far:false
            (Dut_prng.Rng.split rng)
            (Dut_protocol.Network.uniform_source ~n)
        then incr accepts
      done;
      if float_of_int !accepts /. float_of_int trials < 0.7 then
        Alcotest.failf "framed at b=%d: only %d/%d accepted" b !accepts trials)
    [ 0; 2; 8; 15 ]

let test_byzantine_tolerance_formula_positive () =
  let b = Dut_core.Byzantine_tester.tolerated_faults ~n:1024 ~eps:0.25 ~k:64 ~q:400 in
  Alcotest.(check bool) "positive and below k" true (b > 0. && b < 64.)

(* -- Rule_search ----------------------------------------------------------- *)

let test_rule_search_indistinguishable_gives_half () =
  (* If the bit distribution is identical under both hypotheses, no rule
     beats a coin flip: the LP value is exactly 1/2. *)
  check_float "coin flip" 0.5
    (Dut_core.Rule_search.best_rule_value ~k:5 ~a0:0.3 ~a_far:[| 0.3; 0.3 |])

let test_rule_search_perfect_bits () =
  (* Perfectly separated bits: value 1 (accept iff all ones, k=1). *)
  check_float_loose "separated" 1.
    (Dut_core.Rule_search.best_rule_value ~k:1 ~a0:1. ~a_far:[| 0. |])

let test_rule_search_lp_dominates_integer () =
  let rng = Dut_prng.Rng.create 138 in
  for _ = 1 to 30 do
    let k = 1 + Dut_prng.Rng.int rng 5 in
    let a0 = Dut_prng.Rng.unit_float rng in
    let a_far = Array.init 4 (fun _ -> Dut_prng.Rng.unit_float rng) in
    let lp = Dut_core.Rule_search.best_rule_value ~k ~a0 ~a_far in
    let integer = Dut_core.Rule_search.best_rule_value_integer ~k ~a0 ~a_far in
    if integer > lp +. 1e-6 then
      Alcotest.failf "integer %f beats LP %f (duality violated)" integer lp;
    if lp < 0.5 -. 1e-9 then Alcotest.failf "LP value %f below the coin flip" lp
  done

let test_rule_search_vote_probs () =
  let g = Dut_core.Exact.collision_acceptor ~ell:1 ~q:2 ~cutoff:1 in
  let a0, a_far = Dut_core.Rule_search.vote_probs g ~eps:0.3 in
  check_float "a0 = mu" (Dut_core.Exact.mu g) a0;
  Alcotest.(check int) "one entry per z" 4 (Array.length a_far);
  (* For the q=2 collision acceptor a_z = 1 - (1+eps^2)/n for every z. *)
  Array.iter (fun a -> check_float "a_z closed form" (1. -. (1.09 /. 4.)) a) a_far

let test_rule_search_matches_truth_table_brute_force () =
  (* k = 2: enumerate all 16 boolean rules directly and confirm the
     integer layer-profile optimum matches. *)
  let rng = Dut_prng.Rng.create 139 in
  for _ = 1 to 25 do
    let a0 = Dut_prng.Rng.unit_float rng in
    let a_far = Array.init 3 (fun _ -> Dut_prng.Rng.unit_float rng) in
    let accept_prob rule p =
      (* bits (b1, b2) iid Bernoulli(p); rule indexed by b1 + 2*b2. *)
      let pr b = if b = 1 then p else 1. -. p in
      let acc = ref 0. in
      for b1 = 0 to 1 do
        for b2 = 0 to 1 do
          if (rule lsr (b1 + (2 * b2))) land 1 = 1 then
            acc := !acc +. (pr b1 *. pr b2)
        done
      done;
      !acc
    in
    let brute = ref 0. in
    for rule = 0 to 15 do
      let a = accept_prob rule a0 in
      let r =
        1.
        -. Array.fold_left (fun acc af -> acc +. accept_prob rule af) 0. a_far
           /. float_of_int (Array.length a_far)
      in
      brute := Float.max !brute (Float.min a r)
    done;
    let via_layers = Dut_core.Rule_search.best_rule_value_integer ~k:2 ~a0 ~a_far in
    if Float.abs (!brute -. via_layers) > 1e-9 then
      Alcotest.failf "layer optimum %f <> truth-table optimum %f" via_layers !brute
  done

let test_rule_search_value_grows_with_q () =
  let value q =
    fst (Dut_core.Rule_search.best_over_strategies ~ell:2 ~q ~eps:0.5 ~k:8)
  in
  Alcotest.(check bool) "more samples help" true (value 4 >= value 1 -. 1e-9)

let () =
  Alcotest.run "dut_core"
    [
      ( "bounds",
        [
          Alcotest.test_case "centralized" `Quick test_centralized_bound;
          Alcotest.test_case "thm 1.1" `Quick test_thm11;
          Alcotest.test_case "thm 6.1 min form" `Quick test_thm61_min_form;
          Alcotest.test_case "thm 1.2" `Quick test_thm12;
          Alcotest.test_case "thm 1.3 1/T" `Quick test_thm13_decreasing_in_t;
          Alcotest.test_case "thm 1.4" `Quick test_thm14;
          Alcotest.test_case "thm 6.4 per-bit factor" `Quick test_thm64_halves_per_bit_squared;
          Alcotest.test_case "FMO uppers" `Quick test_fmo_upper_bounds;
          Alcotest.test_case "ACT bounds" `Quick test_act_bounds;
          Alcotest.test_case "l2 norm" `Quick test_l2_norm;
          Alcotest.test_case "async norm sufficiency" `Quick test_async_bound_depends_only_on_norm;
          Alcotest.test_case "lemma RHS monotone" `Quick test_lemma_rhs_monotonicity;
          Alcotest.test_case "lemma 4.3 side condition" `Quick test_lemma43_applies;
          Alcotest.test_case "divergence = info module" `Quick test_divergence_formulas_match_info;
          Alcotest.test_case "asymmetric errors" `Quick test_asymmetric_divergence_requirement;
        ] );
      ( "local_stat",
        [
          Alcotest.test_case "collisions crafted" `Quick test_collisions_crafted;
          Alcotest.test_case "cutoff ordering" `Quick test_cutoff_ordering;
          Alcotest.test_case "alarm cutoff monotone" `Quick test_alarm_cutoff_monotone_in_level;
          Alcotest.test_case "skew-corrected calibration" `Slow
            test_alarm_cutoff_calibrated_beyond_poisson;
          Alcotest.test_case "votes" `Quick test_votes;
        ] );
      ( "evaluate",
        [
          Alcotest.test_case "oracle measurement" `Slow test_measure_oracle;
          Alcotest.test_case "determinism" `Slow test_measure_deterministic;
          Alcotest.test_case "succeeds levels" `Slow test_succeeds_levels;
          Alcotest.test_case "critical q synthetic" `Slow test_critical_q_synthetic;
        ] );
      ( "and_tester",
        [
          Alcotest.test_case "errors" `Quick test_and_tester_errors;
          Alcotest.test_case "cutoff grows with k" `Quick test_and_tester_cutoff_grows_with_k;
          Alcotest.test_case "power" `Slow test_and_tester_power;
        ] );
      ( "threshold_tester",
        [
          Alcotest.test_case "fixed errors" `Quick test_threshold_fixed_errors;
          Alcotest.test_case "fixed referee cutoff" `Quick test_threshold_fixed_referee_cutoff;
          Alcotest.test_case "majority power" `Slow test_threshold_majority_power;
          Alcotest.test_case "majority beats AND" `Slow test_threshold_uses_fewer_samples_than_and;
        ] );
      ( "rbit_tester",
        [
          Alcotest.test_case "errors" `Quick test_rbit_errors;
          Alcotest.test_case "quantize range" `Quick test_rbit_quantize_range;
          Alcotest.test_case "power" `Slow test_rbit_power;
        ] );
      ( "single_sample",
        [
          Alcotest.test_case "errors" `Quick test_single_sample_errors;
          Alcotest.test_case "expectations" `Quick test_single_sample_expectations;
          Alcotest.test_case "power" `Slow test_single_sample_power;
        ] );
      ( "async_tester",
        [
          Alcotest.test_case "sample counts" `Quick test_async_sample_counts;
          Alcotest.test_case "errors" `Quick test_async_errors;
          Alcotest.test_case "power" `Slow test_async_power;
        ] );
      ( "learning",
        [
          Alcotest.test_case "errors" `Quick test_learning_errors;
          Alcotest.test_case "recovers bias" `Slow test_learning_recovers_point_mass_shape;
          Alcotest.test_case "error decreases with k" `Slow test_learning_error_decreases_with_k;
          Alcotest.test_case "estimate is a pmf" `Quick test_learning_estimate_is_pmf;
        ] );
      ( "crash_tester",
        [
          Alcotest.test_case "errors" `Quick test_crash_tester_errors;
          Alcotest.test_case "cutoff scales with live" `Quick
            test_crash_cutoff_scales_with_live;
          Alcotest.test_case "crash-free power" `Slow test_crash_zero_matches_plain_power;
          Alcotest.test_case "half fleet" `Slow test_crash_half_fleet_still_works;
        ] );
      ( "byzantine_tester",
        [
          Alcotest.test_case "errors" `Quick test_byzantine_errors;
          Alcotest.test_case "safety under framing" `Slow test_byzantine_safety_under_framing;
          Alcotest.test_case "tolerance formula" `Quick test_byzantine_tolerance_formula_positive;
        ] );
      ( "rule_search",
        [
          Alcotest.test_case "indistinguishable = 1/2" `Quick
            test_rule_search_indistinguishable_gives_half;
          Alcotest.test_case "perfect bits" `Quick test_rule_search_perfect_bits;
          Alcotest.test_case "LP dominates integer" `Quick
            test_rule_search_lp_dominates_integer;
          Alcotest.test_case "vote probs" `Quick test_rule_search_vote_probs;
          Alcotest.test_case "truth-table brute force" `Quick
            test_rule_search_matches_truth_table_brute_force;
          Alcotest.test_case "value grows with q" `Quick
            test_rule_search_value_grows_with_q;
        ] );
    ]
