(* Cross-module property tests: relations that tie the layers together
   (rule equivalences, sampler/distance consistency, hard-family
   invariants under composition). *)

let vote_arrays =
  QCheck.(list_of_size (Gen.int_range 1 10) bool)
  |> QCheck.map (fun l -> Array.of_list l)

let prop_and_is_threshold_one =
  QCheck.Test.make ~name:"AND = Reject_threshold 1" ~count:300 vote_arrays
    (fun votes ->
      Dut_protocol.Rule.apply And votes
      = Dut_protocol.Rule.apply (Reject_threshold 1) votes)

let prop_or_is_accept_one =
  QCheck.Test.make ~name:"OR = Accept_at_least 1" ~count:300 vote_arrays
    (fun votes ->
      Dut_protocol.Rule.apply Or votes
      = Dut_protocol.Rule.apply (Accept_at_least 1) votes)

let prop_majority_is_accept_count =
  QCheck.Test.make ~name:"Majority = Accept_at_least (k/2+1)" ~count:300
    vote_arrays (fun votes ->
      let k = Array.length votes in
      Dut_protocol.Rule.apply Majority votes
      = Dut_protocol.Rule.apply (Accept_at_least ((k / 2) + 1)) votes)

let prop_threshold_complement =
  QCheck.Test.make ~name:"reject-threshold t accepts iff rejects < t" ~count:300
    QCheck.(pair (int_range 1 10) vote_arrays)
    (fun (t, votes) ->
      let t = min t (Array.length votes) in
      let rejects =
        Array.fold_left (fun acc v -> if v then acc else acc + 1) 0 votes
      in
      Dut_protocol.Rule.apply (Reject_threshold t) votes = (rejects < t))

let prop_sampler_matches_pmf =
  (* Empirical frequencies converge: l1(empirical, pmf) small for a
     moderate sample size (loose bound, high probability). *)
  QCheck.Test.make ~name:"alias sampler tracks its pmf" ~count:20
    QCheck.(pair small_int (int_range 2 10))
    (fun (seed, size) ->
      let rng = Dut_prng.Rng.create seed in
      let w = Array.init size (fun _ -> 0.05 +. Dut_prng.Rng.unit_float rng) in
      let total = Array.fold_left ( +. ) 0. w in
      let pmf = Dut_dist.Pmf.create (Array.map (fun x -> x /. total) w) in
      let sampler = Dut_dist.Sampler.of_pmf pmf in
      let draws = 20000 in
      let hist =
        Dut_dist.Empirical.of_samples ~n:size
          (Dut_dist.Sampler.draw_many sampler rng draws)
      in
      Dut_dist.Distance.l1 (Dut_dist.Empirical.to_pmf hist) pmf < 0.1)

let prop_paninski_mix_reduces_distance =
  (* Mixing a hard instance towards uniform scales its distance
     linearly: l1(a*nu + (1-a)*U, U) = a * eps. *)
  QCheck.Test.make ~name:"mixing scales the hard family's distance" ~count:100
    QCheck.(triple small_int (float_range 0.1 0.9) (float_range 0.1 0.9))
    (fun (seed, eps, a) ->
      let rng = Dut_prng.Rng.create seed in
      let d = Dut_dist.Paninski.random ~ell:3 ~eps rng in
      let n = Dut_dist.Paninski.n d in
      let mixed =
        Dut_dist.Pmf.mix a (Dut_dist.Paninski.pmf d) (Dut_dist.Pmf.uniform n)
      in
      Float.abs (Dut_dist.Distance.distance_to_uniformity mixed -. (a *. eps))
      < 1e-9)

let prop_collision_prob_lower_bound =
  (* Any pmf's collision probability is at least 1/n, with equality only
     for uniform — the inequality behind every collision tester. *)
  QCheck.Test.make ~name:"collision probability >= 1/n" ~count:200
    QCheck.(pair small_int (int_range 2 12))
    (fun (seed, size) ->
      let rng = Dut_prng.Rng.create seed in
      let w = Array.init size (fun _ -> 0.01 +. Dut_prng.Rng.unit_float rng) in
      let total = Array.fold_left ( +. ) 0. w in
      let pmf = Dut_dist.Pmf.create (Array.map (fun x -> x /. total) w) in
      Dut_dist.Pmf.collision_prob pmf >= (1. /. float_of_int size) -. 1e-12)

let prop_identity_reduction_granule_count =
  QCheck.Test.make ~name:"identity reduction granules sum to m" ~count:50
    QCheck.(pair (int_range 2 32) (float_range 0.1 0.8))
    (fun (size, eps) ->
      let target = Dut_dist.Families.zipf ~n:size ~s:1. in
      let r = Dut_testers.Identity.make ~target ~eps in
      Array.fold_left ( + ) 0 (Dut_testers.Identity.copies r)
      = Dut_testers.Identity.flattened_size r)

let prop_bounds_thm61_dominated_by_thm11 =
  (* In the k <= n/eps^2 range the two formulas agree on the sqrt
     branch. *)
  QCheck.Test.make ~name:"thm 6.1 = thm 1.1 on the sqrt branch" ~count:200
    QCheck.(pair (int_range 6 14) (int_range 0 8))
    (fun (log_n, log_k) ->
      let n = 1 lsl log_n and k = 1 lsl log_k in
      let eps = 0.3 in
      QCheck.assume (k <= n);
      Float.abs
        (Dut_core.Bounds.thm61_lower ~n ~k ~eps
        -. Dut_core.Bounds.thm11_lower ~n ~k ~eps)
      < 1e-9)

let prop_search_seeded_matches_cold =
  (* The warm-started critical search is an optimisation, never a
     different answer. Every monotone predicate on [lo, hi] is a step
     function, so a random threshold generates them all; the ranges are
     chosen so the cases that broke earlier drafts occur constantly:
     guesses far outside [lo, hi] (clamped), lo = 0 brackets, and
     thresholds past hi (the predicate is false everywhere and both
     searches must return None). *)
  QCheck.Test.make ~name:"search_seeded = search on monotone predicates"
    ~count:1000
    QCheck.(
      quad (int_range 0 50) (int_range 0 2000) (int_range (-4096) 8192)
        (int_range 0 2500))
    (fun (lo, span, guess, offset) ->
      let hi = lo + span in
      let first_true = lo + offset in
      let ok v = v >= first_true in
      Dut_stats.Critical.search_seeded ~lo ~hi ~guess ok
      = Dut_stats.Critical.search ~lo ~hi ok)

let prop_search_seeded_edge_cases =
  (* The named edges, pinned deterministically (the random property
     above also reaches them, but only with some probability). *)
  QCheck.Test.make ~name:"search_seeded pinned edges" ~count:1 QCheck.unit
    (fun () ->
      let open Dut_stats.Critical in
      let all_false _ = false in
      search ~lo:0 ~hi:100 all_false = None
      && search_seeded ~lo:0 ~hi:100 ~guess:7 all_false = None
      && search_seeded ~lo:0 ~hi:100 ~guess:(1 lsl 20) all_false = None
      && search_seeded ~lo:0 ~hi:100 ~guess:(-5) (fun v -> v >= 0) = Some 0
      && search_seeded ~lo:1 ~hi:64 ~guess:(1 lsl 20) (fun v -> v >= 10)
         = Some 10
      && search_seeded ~lo:3 ~hi:9 ~guess:(-7) (fun v -> v >= 5) = Some 5)

let prop_graph_handshake =
  (* Sum of degrees = 2 x edges on random connected graphs. *)
  QCheck.Test.make ~name:"handshake lemma" ~count:100
    QCheck.(pair small_int (int_range 2 30))
    (fun (seed, k) ->
      let rng = Dut_prng.Rng.create seed in
      let g = Dut_netsim.Graph.random_connected rng ~n:k ~extra_edges:(k / 2) in
      let degree_sum = ref 0 in
      for v = 0 to k - 1 do
        degree_sum := !degree_sum + Dut_netsim.Graph.degree g v
      done;
      !degree_sum = 2 * Dut_netsim.Graph.edge_count g)

let prop_span_tree_depth_consistent =
  QCheck.Test.make ~name:"spanning tree depths are BFS distances" ~count:50
    QCheck.(pair small_int (int_range 2 25))
    (fun (seed, k) ->
      let rng = Dut_prng.Rng.create seed in
      let g = Dut_netsim.Graph.random_connected rng ~n:k ~extra_edges:k in
      let t = Dut_netsim.Span_tree.of_graph g ~root:0 in
      let dist, _ = Dut_netsim.Graph.bfs g ~root:0 in
      t.Dut_netsim.Span_tree.depth = dist)

let () =
  Alcotest.run "dut_properties"
    [
      ( "rule equivalences",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_and_is_threshold_one; prop_or_is_accept_one;
            prop_majority_is_accept_count; prop_threshold_complement;
          ] );
      ( "distributions",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_sampler_matches_pmf; prop_paninski_mix_reduces_distance;
            prop_collision_prob_lower_bound;
          ] );
      ( "cross-module",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_identity_reduction_granule_count;
            prop_bounds_thm61_dominated_by_thm11;
          ] );
      ( "critical search",
        List.map QCheck_alcotest.to_alcotest
          [ prop_search_seeded_matches_cold; prop_search_seeded_edge_cases ] );
      ( "graphs",
        List.map QCheck_alcotest.to_alcotest
          [ prop_graph_handshake; prop_span_tree_depth_consistent ] );
    ]
