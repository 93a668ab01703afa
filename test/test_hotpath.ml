(* Tests for the hot-path overhaul: adaptive Monte-Carlo stopping,
   per-domain scratch arenas, and warm-started critical search.

   Three families of guarantees are exercised:
   - equivalence: the scratch-arena kernels reproduce the historical
     allocating paths bit for bit, and the seeded search returns the
     same answer as the cold one for every monotone predicate;
   - jobs-invariance: the adaptive estimator's estimate AND spend are
     identical for every jobs count;
   - allocation: heavy experiments stay under a words-per-trial cap. *)

let rng seed = Dut_prng.Rng.create seed

(* -- Adaptive stopping --------------------------------------------------- *)

let verdict_of_fixed ~level (ci : Dut_stats.Binomial_ci.t) =
  ci.estimate >= level

let test_adaptive_agrees_with_fixed_when_decisive () =
  (* For seeds and biases across both sides of the target, whenever the
     fixed-budget interval is decisive the adaptive verdict must match
     the fixed verdict. Deterministic: a fixed set of seeds. *)
  let trials = 200 and target = 0.5 in
  let checked = ref 0 in
  for seed = 0 to 149 do
    let p = if seed mod 2 = 0 then 0.2 else 0.8 in
    let event r = Dut_prng.Rng.unit_float r < p in
    let fixed = Dut_stats.Montecarlo.estimate_prob ~trials (rng seed) event in
    if fixed.lower > target || fixed.upper < target then begin
      incr checked;
      let adaptive =
        Dut_stats.Montecarlo.estimate_prob_adaptive ~max_trials:trials ~target
          (rng seed) event
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d verdict" seed)
        (verdict_of_fixed ~level:target fixed)
        (adaptive.ci.estimate >= target);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d stopped early" seed)
        true
        (adaptive.trials_used <= trials)
    end
  done;
  Alcotest.(check bool) "most fixed runs were decisive" true (!checked > 100)

let test_adaptive_full_budget_equals_fixed () =
  (* A bias pinned to the target never lets the interval separate, so
     the adaptive estimator must spend the whole budget and land on
     exactly the fixed estimate (same streams, same counts). *)
  let trials = 160 and target = 0.5 in
  let event r = Dut_prng.Rng.unit_float r < 0.5 in
  for seed = 0 to 19 do
    let fixed = Dut_stats.Montecarlo.estimate_prob ~trials (rng seed) event in
    let adaptive =
      Dut_stats.Montecarlo.estimate_prob_adaptive ~max_trials:trials ~target
        (rng seed) event
    in
    if adaptive.trials_used = trials then
      Alcotest.(check (float 0.))
        (Printf.sprintf "seed %d estimate" seed)
        fixed.estimate adaptive.ci.estimate
  done

let test_adaptive_jobs_invariant () =
  let est jobs =
    Dut_stats.Montecarlo.estimate_prob_adaptive ~jobs ~max_trials:500
      ~target:0.45 (rng 42) (fun r -> Dut_prng.Rng.unit_float r < 0.3)
  in
  let base = est 1 in
  Alcotest.(check bool)
    "adaptive stopped before the cap" true
    (base.trials_used < 500);
  List.iter
    (fun jobs ->
      let a = est jobs in
      Alcotest.(check (float 0.))
        (Printf.sprintf "estimate jobs=%d" jobs)
        base.ci.estimate a.ci.estimate;
      Alcotest.(check int)
        (Printf.sprintf "trials_used jobs=%d" jobs)
        base.trials_used a.trials_used)
    [ 2; 4 ]

(* -- Scratch kernels vs the allocating paths ----------------------------- *)

let test_random_scratch_equals_random () =
  List.iter
    (fun (ell, eps, seed) ->
      let a = Dut_dist.Paninski.random ~ell ~eps (rng seed) in
      let b = Dut_dist.Paninski.random_scratch ~ell ~eps (rng seed) in
      Alcotest.(check (array int))
        (Printf.sprintf "z (ell=%d seed=%d)" ell seed)
        (Dut_dist.Paninski.z a) (Dut_dist.Paninski.z b))
    [ (2, 0.3, 0); (5, 0.25, 1); (7, 0.3, 2); (7, 0.5, 3); (9, 0.25, 4) ]

let test_draw_many_into_equals_draw_many () =
  let hard = Dut_dist.Paninski.random ~ell:6 ~eps:0.3 (rng 9) in
  let expected = Dut_dist.Paninski.draw_many hard (rng 10) 777 in
  let buf = Array.make 777 (-1) in
  Dut_dist.Paninski.draw_many_into hard (rng 10) buf;
  Alcotest.(check (array int)) "paninski draws" expected buf;
  let sampler = Dut_dist.Sampler.of_pmf (Dut_dist.Pmf.uniform 97) in
  let expected = Dut_dist.Sampler.draw_many sampler (rng 11) 500 in
  let buf = Array.make 500 (-1) in
  Dut_dist.Sampler.draw_many_into sampler (rng 11) buf;
  Alcotest.(check (array int)) "sampler draws" expected buf

(* The allocating general-message rounds the scratch rounds replaced:
   a fresh child stream and a fresh sample tuple per player. *)
let legacy_round_messages ~rng ~source ~k ~q ~messenger ~referee =
  referee
    (Array.init k (fun i ->
         let coins = Dut_prng.Rng.split rng in
         let samples = Array.init q (fun _ -> source coins) in
         messenger ~index:i coins samples))

let legacy_round_fold ~rng ~source ~k ~q ~messenger ~init ~f =
  let acc = ref init in
  for i = 0 to k - 1 do
    let coins = Dut_prng.Rng.split rng in
    let samples = Array.init q (fun _ -> source coins) in
    acc := f !acc (messenger ~index:i coins samples)
  done;
  !acc

(* The seed repo's round: fresh sample tuples from Array.init. The
   scratch-buffer round must reproduce votes and verdict exactly. *)
let legacy_round ~rng ~source ~k ~q ~player ~rule =
  legacy_round_messages ~rng ~source ~k ~q ~messenger:player
    ~referee:(fun votes -> (votes, Dut_protocol.Rule.apply rule votes))

let test_round_equals_legacy_allocating_round () =
  let n = 256 in
  let player ~index _coins samples =
    Dut_core.Local_stat.collisions samples < 3 + (index mod 2)
  in
  List.iter
    (fun (seed, rule) ->
      let expected_votes, expected_accept =
        legacy_round ~rng:(rng seed)
          ~source:(Dut_protocol.Network.uniform_source ~n)
          ~k:16 ~q:40 ~player ~rule
      in
      let votes =
        Dut_protocol.Network.round_fold ~rng:(rng seed)
          ~source:(Dut_protocol.Network.uniform_source ~n)
          ~k:16 ~q:40 ~messenger:player ~init:[] ~f:(fun acc v -> v :: acc)
      in
      let accept =
        Dut_protocol.Network.round_accept ~rng:(rng seed)
          ~source:(Dut_protocol.Network.uniform_source ~n)
          ~k:16 ~q:40 ~player ~rule
      in
      Alcotest.(check (list bool)) "votes"
        (List.rev (Array.to_list expected_votes)) votes;
      Alcotest.(check bool) "accept" expected_accept accept)
    [
      (0, Dut_protocol.Rule.And);
      (1, Dut_protocol.Rule.Majority);
      (2, Dut_protocol.Rule.Reject_threshold 4);
    ]

(* The tuple-message single-sample referee that the scratch referee
   replaced, verbatim except for its inputs: [Single_sample.t] is
   abstract, so the bucket and group layout is rebuilt from (n, k, bits)
   with [Single_sample.make]'s formulas, and the round runs on the
   allocating [legacy_round_messages]. *)
let legacy_single_sample ~n ~eps ~k ~bits rng source =
  let t = Dut_core.Single_sample.make ~n ~eps ~k ~bits in
  let buckets = 1 lsl bits in
  let groups = max 1 (min (k / 2) 8) in
  let block = n / buckets in
  let bucket_of =
    Array.init groups (fun _ ->
        let perm = Array.init n (fun i -> i) in
        Dut_prng.Rng.shuffle_in_place rng perm;
        let assignment = Array.make n 0 in
        Array.iteri (fun pos elt -> assignment.(elt) <- pos / block) perm;
        assignment)
  in
  let sizes =
    Array.init groups (fun g ->
        let base = k / groups in
        if g < k mod groups then base + 1 else base)
  in
  let group_of_player =
    (* Players 0..k-1 assigned to groups in contiguous runs. *)
    let assignment = Array.make k 0 in
    let idx = ref 0 in
    Array.iteri
      (fun g kg ->
        for _ = 1 to kg do
          assignment.(!idx) <- g;
          incr idx
        done)
      sizes;
    assignment
  in
  let messenger ~index _coins samples =
    let g = group_of_player.(index) in
    (g, bucket_of.(g).(samples.(0)))
  in
  legacy_round_messages ~rng ~source ~k ~q:1 ~messenger
    ~referee:(fun messages ->
      let counts = Array.make_matrix groups buckets 0 in
      Array.iter
        (fun (g, b) -> counts.(g).(b) <- counts.(g).(b) + 1)
        messages;
      let colliding = ref 0 in
      Array.iter
        (Array.iter (fun c -> colliding := !colliding + (c * (c - 1) / 2)))
        counts;
      float_of_int !colliding < Dut_core.Single_sample.cutoff t)

(* Every scratch kernel must reproduce its allocating reference bit for
   bit: the same messages in the same order, the same verdicts, and the
   same root-stream position afterwards. *)
let test_legacy_kernels_equal_scratch_kernels () =
  let n = 128 in
  let source = Dut_protocol.Network.uniform_source ~n in
  let messenger ~index coins samples =
    Array.fold_left
      (fun acc s -> (acc * 31) + s)
      ((index * 1009) + Dut_prng.Rng.int coins 1000)
      samples
  in
  List.iter
    (fun (k, q) ->
      for seed = 0 to 9 do
        let label what = Printf.sprintf "%s k=%d q=%d seed=%d" what k q seed in
        let folded round =
          let r = rng seed in
          let acc =
            round ~rng:r ~source ~k ~q ~messenger ~init:[] ~f:(fun acc m ->
                m :: acc)
          in
          (acc, Dut_prng.Rng.bits64 r)
        in
        Alcotest.(check (pair (list int) int64))
          (label "round_fold")
          (folded legacy_round_fold)
          (folded Dut_protocol.Network.round_fold)
      done)
    [ (1, 0); (1, 1); (5, 7); (16, 40) ];
  let hard = Dut_dist.Paninski.random ~ell:6 ~eps:0.5 (rng 77) in
  let sources =
    [ ("uniform", source); ("far", Dut_protocol.Network.of_paninski hard) ]
  in
  List.iter
    (fun (k, bits) ->
      let t = Dut_core.Single_sample.make ~n ~eps:0.5 ~k ~bits in
      let accepts = Dut_core.Single_sample.accepts t in
      List.iter
        (fun (name, source) ->
          for seed = 0 to 29 do
            Alcotest.(check bool)
              (Printf.sprintf "single-sample k=%d bits=%d %s seed=%d" k bits
                 name seed)
              (legacy_single_sample ~n ~eps:0.5 ~k ~bits (rng seed) source)
              (accepts (rng seed) source)
          done)
        sources)
    [ (2, 1); (3, 7); (17, 2); (64, 3); (300, 3); (1000, 5) ]

(* The per-tester null calibration closure that
   [Local_stat.null_midpoint_rejects] replaced, verbatim: a fresh sample
   tuple per voter. *)
let legacy_null_rejects ~n ~q ~eps ~voters r =
  let count = ref 0 in
  for _ = 1 to voters do
    let samples = Array.init q (fun _ -> Dut_prng.Rng.int r n) in
    if not (Dut_core.Local_stat.vote_midpoint ~n ~q ~eps samples) then
      incr count
  done;
  !count

let test_null_midpoint_rejects_equals_legacy () =
  List.iter
    (fun (n, q, eps, voters) ->
      for seed = 0 to 19 do
        let draw f =
          let r = rng seed in
          let rejects = f ~n ~q ~eps ~voters r in
          (rejects, Dut_prng.Rng.bits64 r)
        in
        Alcotest.(check (pair int int64))
          (Printf.sprintf "n=%d q=%d eps=%g voters=%d seed=%d" n q eps voters
             seed)
          (draw legacy_null_rejects)
          (draw Dut_core.Local_stat.null_midpoint_rejects)
      done)
    [ (64, 0, 0.3, 3); (64, 12, 0.3, 16); (256, 40, 0.25, 36); (4096, 90, 0.5, 7) ]

(* -- Counting referee ---------------------------------------------------- *)

let test_round_accept_equals_round () =
  let n = 256 in
  let source = Dut_protocol.Network.uniform_source ~n in
  let player ~index _coins samples =
    Dut_core.Local_stat.collisions samples < 3 + (index mod 2)
  in
  List.iter
    (fun rule ->
      for seed = 0 to 9 do
        let _, expected =
          legacy_round ~rng:(rng seed) ~source ~k:16 ~q:40 ~player ~rule
        in
        let accept =
          Dut_protocol.Network.round_accept ~rng:(rng seed) ~source ~k:16 ~q:40
            ~player ~rule
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s seed %d" (Dut_protocol.Rule.name rule) seed)
          expected accept
      done)
    [
      Dut_protocol.Rule.And; Dut_protocol.Rule.Or; Dut_protocol.Rule.Majority;
      Dut_protocol.Rule.Reject_threshold 4;
      Dut_protocol.Rule.Accept_at_least 9;
    ]

let prop_accept_min_matches_apply =
  (* For every rule the referee's verdict must be the single integer
     compare [ones >= accept_min] on arbitrary votes. *)
  QCheck.Test.make ~name:"accept_min cutoff = Rule.apply" ~count:500
    QCheck.(
      pair (int_range 1 40) (list_of_size Gen.(int_range 1 40) bool))
    (fun (threshold, votes) ->
      let votes = Array.of_list votes in
      let k = Array.length votes in
      let ones = Array.fold_left (fun a v -> a + Bool.to_int v) 0 votes in
      List.for_all
        (fun rule ->
          Dut_protocol.Rule.apply rule votes
             = (ones >= Dut_protocol.Rule.accept_min rule ~k))
        [
          Dut_protocol.Rule.And; Dut_protocol.Rule.Or;
          Dut_protocol.Rule.Majority;
          Dut_protocol.Rule.Reject_threshold threshold;
          Dut_protocol.Rule.Accept_at_least threshold;
        ])

(* -- Batched draws ------------------------------------------------------- *)

let prop_sampler_draw_block_equals_scalar =
  QCheck.Test.make ~name:"Sampler.draw_block = scalar draws" ~count:200
    QCheck.(
      pair small_int (list_of_size Gen.(int_range 1 40) (int_range 1 100)))
    (fun (seed, weights) ->
      let total = float_of_int (List.fold_left ( + ) 0 weights) in
      let pmf =
        Dut_dist.Pmf.create
          (Array.of_list (List.map (fun w -> float_of_int w /. total) weights))
      in
      let s = Dut_dist.Sampler.of_pmf pmf in
      let a = rng seed and b = rng seed in
      let buf = Array.make 300 (-1) in
      Dut_dist.Sampler.draw_block s a buf;
      buf = Array.init 300 (fun _ -> Dut_dist.Sampler.draw s b)
      && Dut_prng.Rng.bits64 a = Dut_prng.Rng.bits64 b)

let prop_paninski_draw_block_equals_scalar =
  QCheck.Test.make ~name:"Paninski.draw_block = scalar draws" ~count:200
    QCheck.(pair small_int (int_range 0 8))
    (fun (seed, ell) ->
      let hard = Dut_dist.Paninski.random ~ell ~eps:0.3 (rng (seed + 1)) in
      let a = rng seed and b = rng seed in
      let buf = Array.make 257 (-1) in
      Dut_dist.Paninski.draw_block hard a buf;
      buf = Array.init 257 (fun _ -> Dut_dist.Paninski.draw hard b)
      && Dut_prng.Rng.bits64 a = Dut_prng.Rng.bits64 b)

let test_measure_jobs_invariant () =
  (* The full evaluation path — scratch samples, scratch Paninski,
     histogram collision counts — at several jobs counts. *)
  let tester =
    Dut_core.Comparison_graph.tester_fixed ~n:256 ~eps:0.3 ~k:8 ~q:64 ~t:1
      Dut_core.Comparison_graph.Clique
  in
  let measure jobs =
    Dut_engine.Parallel.set_default_jobs jobs;
    Fun.protect
      ~finally:(fun () ->
        Dut_engine.Parallel.set_default_jobs (Dut_engine.Parallel.env_jobs ()))
      (fun () ->
        Dut_core.Evaluate.measure ~trials:60 ~rng:(rng 5) ~ell:7 ~eps:0.3
          tester)
  in
  let base = measure 1 in
  List.iter
    (fun jobs ->
      let p = measure jobs in
      Alcotest.(check (float 0.))
        (Printf.sprintf "uniform jobs=%d" jobs)
        base.uniform_accept.estimate p.uniform_accept.estimate;
      Alcotest.(check (float 0.))
        (Printf.sprintf "far jobs=%d" jobs)
        base.far_reject.estimate p.far_reject.estimate)
    [ 2; 4 ]

let prop_collisions_bounded_equals_collisions =
  QCheck.Test.make ~name:"collisions_bounded = collisions" ~count:300
    QCheck.(
      pair (int_range 1 400) (list_of_size Gen.(int_range 0 120) (int_range 0 10_000)))
    (fun (n, xs) ->
      let samples = Array.of_list (List.map (fun x -> x mod n) xs) in
      Dut_core.Local_stat.collisions_bounded ~n samples
      = Dut_core.Local_stat.collisions (Array.copy samples))

let prop_hist_counts_match_naive =
  QCheck.Test.make ~name:"scratch histogram counts match a naive table"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 0 80) (int_range 0 63))
    (fun xs ->
      let h = Dut_engine.Scratch.hist ~size:64 in
      let naive = Array.make 64 0 in
      List.for_all
        (fun v ->
          naive.(v) <- naive.(v) + 1;
          Dut_engine.Scratch.bump h v = naive.(v))
        xs
      && List.for_all (fun v -> Dut_engine.Scratch.count h v = naive.(v)) xs)

(* -- Warm-started search ------------------------------------------------- *)

let prop_search_seeded_equals_search =
  QCheck.Test.make ~name:"search_seeded = search for monotone predicates"
    ~count:500
    QCheck.(triple (int_range 1 60) (int_range 1 2000) (int_range 1 2000))
    (fun (lo, width, guess) ->
      let hi = lo + width in
      (* Thresholds inside, at, and outside the bracket. *)
      List.for_all
        (fun m ->
          let ok q = q >= m in
          let cold = Dut_stats.Critical.search ~lo ~hi ok in
          let seeded = Dut_stats.Critical.search_seeded ~lo ~hi ~guess ok in
          cold = seeded)
        [ lo; lo + (width / 2); hi; hi + 1 ])

let test_search_seeded_counts_fewer_probes_when_guess_is_close () =
  (* The point of warm-starting: a near-answer guess brackets in a few
     probes where the cold search doubles all the way up. *)
  let m = 700 in
  let probes search =
    let count = ref 0 in
    let ok q =
      incr count;
      q >= m
    in
    ignore (search ok);
    !count
  in
  let cold = probes (fun ok -> Dut_stats.Critical.search ~lo:1 ~hi:100_000 ok) in
  let warm =
    probes (fun ok ->
        Dut_stats.Critical.search_seeded ~lo:1 ~hi:100_000 ~guess:750 ok)
  in
  Alcotest.(check bool)
    (Printf.sprintf "warm %d < cold %d" warm cold)
    true (warm < cold)

(* -- Allocation budget ---------------------------------------------------- *)

(* The hot draws allocate nothing: [Rng.int]'s mask and rejection loop
   are top-level recursions, so no closure is built per call (without
   flambda a local [let rec] capturing the bound cost four words a
   draw), and the 64-bit arithmetic of a draw or an in-place split
   never leaves [Rng] as a boxed [int64]. *)
let test_rng_int_allocates_nothing () =
  let r = rng 7 and child = rng 0 in
  let acc = ref (Dut_prng.Rng.int r 7) in
  Dut_prng.Rng.split_into r child;
  let words_of label f =
    let words0 = Gc.minor_words () in
    for _ = 1 to 10_000 do
      acc := !acc + f ()
    done;
    let words = Gc.minor_words () -. words0 in
    Alcotest.(check (float 0.))
      (Printf.sprintf "minor words over 10,000 %s" label)
      0. words
  in
  words_of "Rng.int r 7 draws" (fun () -> Dut_prng.Rng.int r 7);
  words_of "Rng.split_into r child splits" (fun () ->
      Dut_prng.Rng.split_into r child;
      0);
  words_of "Rng.bits53 draws" (fun () -> Dut_prng.Rng.bits53 child);
  words_of "Rng.bool draws" (fun () -> Bool.to_int (Dut_prng.Rng.bool child));
  ignore (Sys.opaque_identity !acc)

(* Minor-heap words per Monte-Carlo trial allowed on the hot path at a
   fixed workload: fast profile, 60-trial probes, jobs 1. Each cap is
   about twice the figure measured when it was set, so jitter passes
   while a reintroduced per-trial allocation fails. Recalibrate with
   [dune exec test/test_hotpath.exe -- test allocation], whose output
   prints each measured figure. *)
let words_per_trial_caps =
  [
    ("A1-ablation", 800.);
    ("T10-single-sample", 120.);
    ("T13-local-model", 115_000.);
    ("T16-gossip", 7_100.);
    ("T19-byzantine", 1_700.);
    ("T20-open-problem", 300.);
    ("T21-stream", 700.);
  ]

(* Run each experiment of [caps] at the workload above and fail, naming
   it, when [measure (minor words, words allocated straight on the
   major heap)] per Monte-Carlo trial exceeds its cap. *)
let check_per_trial ~what caps measure =
  let open Dut_experiments in
  let cfg = Config.make ~trials:60 ~jobs:1 Config.Fast in
  Dut_engine.Parallel.set_default_jobs cfg.jobs;
  Fun.protect
    ~finally:(fun () ->
      Dut_engine.Parallel.set_default_jobs (Dut_engine.Parallel.env_jobs ()))
  @@ fun () ->
  let direct (st : Gc.stat) = st.major_words -. st.promoted_words in
  List.iter
    (fun (id, cap) ->
      let trials0 = Dut_obs.Metrics.value "mc.trials_used" in
      let major0 = direct (Gc.quick_stat ()) in
      let minor0 = Gc.minor_words () in
      ignore ((Option.get (Registry.find id)).Exp.run cfg);
      let minor = Gc.minor_words () -. minor0 in
      let major = direct (Gc.quick_stat ()) -. major0 in
      let trials = Dut_obs.Metrics.value "mc.trials_used" - trials0 in
      if trials <= 0 then Alcotest.failf "%s: ran no Monte-Carlo trials" id;
      let per_trial = measure (minor, major) /. float_of_int trials in
      Printf.printf "%-18s %10.1f %s/trial (cap %.0f)\n%!" id per_trial what cap;
      if per_trial > cap then
        Alcotest.failf "%s: %.1f %s/trial exceeds the budget of %.0f" id
          per_trial what cap)
    caps

let test_allocation_budget () =
  check_per_trial ~what:"words" words_per_trial_caps fst

(* Arrays past 256 words skip the minor heap, so the caps above cannot
   see them: a fresh per-trial sample array costs its q words a trial
   straight on the major heap (about 28,000 in T12), and across a long
   run that garbage sets the peak RSS. These experiments draw each
   trial's samples into scratch buffers instead; what is left is the
   arenas' one-time growth (1.9, 0.3 and 35.9 words/trial run alone,
   against 144, 226 and 30,319 with fresh arrays). *)
let direct_major_words_caps =
  [ ("F4-separation", 10.); ("T5-centralized", 10.); ("T12-identity", 100.) ]

let test_direct_major_budget () =
  check_per_trial ~what:"major words" direct_major_words_caps snd

(* -- Jobs clamping ------------------------------------------------------- *)

let test_effective_jobs_clamps () =
  let cores = Domain.recommended_domain_count () in
  Alcotest.(check int) "1 stays 1" 1 (Dut_engine.Pool.effective_jobs 1);
  Alcotest.(check int) "cores stays cores" cores
    (Dut_engine.Pool.effective_jobs cores);
  Alcotest.(check int) "oversubscription clamps" cores
    (Dut_engine.Pool.effective_jobs (cores + 37));
  let cfg =
    Dut_experiments.Config.make ~jobs:(cores + 5) Dut_experiments.Config.Fast
  in
  Alcotest.(check int) "Config.make clamps" cores cfg.jobs

let () =
  Alcotest.run "dut_hotpath"
    [
      ( "adaptive",
        [
          Alcotest.test_case "agrees with fixed verdict when decisive" `Quick
            test_adaptive_agrees_with_fixed_when_decisive;
          Alcotest.test_case "full budget = fixed estimate" `Quick
            test_adaptive_full_budget_equals_fixed;
          Alcotest.test_case "jobs-invariant incl. trials_used" `Quick
            test_adaptive_jobs_invariant;
        ] );
      ( "scratch",
        [
          Alcotest.test_case "random_scratch = random" `Quick
            test_random_scratch_equals_random;
          Alcotest.test_case "draw_many_into = draw_many" `Quick
            test_draw_many_into_equals_draw_many;
          Alcotest.test_case "round = legacy allocating round" `Quick
            test_round_equals_legacy_allocating_round;
          Alcotest.test_case "legacy kernels = scratch kernels" `Quick
            test_legacy_kernels_equal_scratch_kernels;
          Alcotest.test_case "null_midpoint_rejects = allocating calibration"
            `Quick test_null_midpoint_rejects_equals_legacy;
          Alcotest.test_case "measure jobs-invariant" `Quick
            test_measure_jobs_invariant;
        ] );
      ( "counting referee",
        [
          Alcotest.test_case "round_accept = round for every rule" `Quick
            test_round_accept_equals_round;
        ] );
      ( "search",
        [
          Alcotest.test_case "warm guess saves probes" `Quick
            test_search_seeded_counts_fewer_probes_when_guess_is_close;
        ] );
      ( "clamping",
        [ Alcotest.test_case "effective_jobs" `Quick test_effective_jobs_clamps ]
      );
      ( "allocation",
        [
          Alcotest.test_case "words per trial within budget" `Slow
            test_allocation_budget;
          Alcotest.test_case "major-heap words per trial within budget" `Slow
            test_direct_major_budget;
          Alcotest.test_case "Rng.int allocates nothing" `Quick
            test_rng_int_allocates_nothing;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_collisions_bounded_equals_collisions;
            prop_hist_counts_match_naive;
            prop_search_seeded_equals_search;
            prop_accept_min_matches_apply;
            prop_sampler_draw_block_equals_scalar;
            prop_paninski_draw_block_equals_scalar;
          ] );
    ]
