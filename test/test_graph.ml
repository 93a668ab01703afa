(* Comparison-graph tests: construction, the edge statistic, the shared
   cutoff layer (including the Poisson / Cornish–Fisher handoff and the
   tie convention), the collisions_bounded path split, the rule-search
   envelope, and the service codec's graph queries. *)

module Cg = Dut_core.Comparison_graph

(* -- Construction ------------------------------------------------------- *)

let test_clique_counts () =
  let g = Cg.build ~q:6 Cg.Clique in
  Alcotest.(check int) "edges" 15 (Cg.edge_count g);
  Alcotest.(check int) "triangles" 20 (Cg.triangle_count g);
  Alcotest.(check int) "edge list" 15 (Array.length (Cg.edges g))

let test_matching_counts () =
  let g = Cg.build ~q:7 Cg.Matching in
  Alcotest.(check int) "edges" 3 (Cg.edge_count g);
  Alcotest.(check int) "triangles" 0 (Cg.triangle_count g);
  Array.iter
    (fun (u, v) -> Alcotest.(check int) "consecutive" (u + 1) v)
    (Cg.edges g)

let test_bipartite_counts () =
  let g = Cg.build ~q:7 Cg.Bipartite in
  Alcotest.(check int) "edges" 12 (Cg.edge_count g);
  Alcotest.(check int) "triangles" 0 (Cg.triangle_count g);
  Array.iter
    (fun (u, v) -> Alcotest.(check bool) "crosses the cut" true (u < 3 && v >= 3))
    (Cg.edges g)

let degrees g =
  let d = Array.make (Cg.q g) 0 in
  Array.iter
    (fun (u, v) ->
      d.(u) <- d.(u) + 1;
      d.(v) <- d.(v) + 1)
    (Cg.edges g);
  d

let test_regular_is_regular () =
  let g = Cg.build ~q:10 (Cg.Random_regular { degree = 4; seed = 7 }) in
  Alcotest.(check int) "edges" 20 (Cg.edge_count g);
  Array.iter (fun d -> Alcotest.(check int) "degree" 4 d) (degrees g);
  (* Odd degree with even q is feasible too (uses the q/2 chord). *)
  let g3 = Cg.build ~q:8 (Cg.Random_regular { degree = 3; seed = 7 }) in
  Array.iter (fun d -> Alcotest.(check int) "odd degree" 3 d) (degrees g3)

let test_regular_deterministic () =
  let edges seed =
    Cg.edges (Cg.build ~q:12 (Cg.Random_regular { degree = 4; seed }))
  in
  Alcotest.(check bool) "same seed, same graph" true (edges 3 = edges 3)

let test_regular_infeasible () =
  Alcotest.(check_raises) "degree too large"
    (Invalid_argument "Comparison_graph: regular degree outside [1, q-1]")
    (fun () -> ignore (Cg.build ~q:4 (Cg.Random_regular { degree = 4; seed = 1 })));
  Alcotest.(check_raises) "odd product"
    (Invalid_argument "Comparison_graph: regular graph needs q*degree even")
    (fun () -> ignore (Cg.build ~q:5 (Cg.Random_regular { degree = 3; seed = 1 })))

let test_explicit_validation () =
  Alcotest.(check_raises) "duplicate"
    (Invalid_argument "Comparison_graph.build: duplicate edge") (fun () ->
      ignore (Cg.build ~q:4 (Cg.Explicit [| (0, 1); (1, 0) |])));
  Alcotest.(check_raises) "self-loop"
    (Invalid_argument "Comparison_graph.build: self-loop") (fun () ->
      ignore (Cg.build ~q:4 (Cg.Explicit [| (2, 2) |])));
  Alcotest.(check_raises) "out of range"
    (Invalid_argument "Comparison_graph.build: edge endpoint outside [0,q)")
    (fun () -> ignore (Cg.build ~q:4 (Cg.Explicit [| (0, 4) |])))

(* Triangle counting against brute force over all vertex triples. *)
let brute_triangles g =
  let q = Cg.q g in
  let adj = Array.make_matrix q q false in
  Array.iter
    (fun (u, v) ->
      adj.(u).(v) <- true;
      adj.(v).(u) <- true)
    (Cg.edges g);
  let count = ref 0 in
  for a = 0 to q - 1 do
    for b = a + 1 to q - 1 do
      for c = b + 1 to q - 1 do
        if adj.(a).(b) && adj.(a).(c) && adj.(b).(c) then incr count
      done
    done
  done;
  !count

let test_triangle_count_brute_force () =
  List.iter
    (fun family ->
      let g = Cg.build ~q:10 family in
      Alcotest.(check int)
        (Cg.family_name family ^ " triangles")
        (brute_triangles g) (Cg.triangle_count g))
    [
      Cg.Matching;
      Cg.Bipartite;
      Cg.Random_regular { degree = 4; seed = 1 };
      Cg.Random_regular { degree = 6; seed = 2 };
      Cg.Explicit [| (0, 1); (1, 2); (0, 2); (2, 3); (3, 4); (2, 4) |];
    ]

(* -- The statistic ------------------------------------------------------ *)

let brute_statistic g samples =
  Array.fold_left
    (fun acc (u, v) -> if samples.(u) = samples.(v) then acc + 1 else acc)
    0 (Cg.edges g)

let families_for_q q =
  [
    Cg.Clique;
    Cg.Matching;
    Cg.Bipartite;
    Cg.Explicit [| (0, 1) |];
  ]
  @ if q >= 5 && q mod 2 = 0 then [ Cg.Random_regular { degree = 4; seed = 1 } ] else []

let prop_statistic_matches_brute_force =
  QCheck.Test.make ~name:"graph statistic = explicit edge walk" ~count:200
    QCheck.(pair (int_range 2 24) small_int)
    (fun (q, seed) ->
      let rng = Dut_prng.Rng.create seed in
      let n = 32 in
      let samples = Array.init q (fun _ -> Dut_prng.Rng.int rng n) in
      List.for_all
        (fun family ->
          let g = Cg.build ~q family in
          Cg.statistic ~n g samples = brute_statistic g samples)
        (families_for_q q))

let test_statistic_length_check () =
  let g = Cg.build ~q:4 Cg.Matching in
  Alcotest.(check_raises) "length"
    (Invalid_argument "Comparison_graph.statistic: sample count <> q")
    (fun () -> ignore (Cg.statistic ~n:8 g [| 1; 2; 3 |]))

(* -- Cutoffs and the comparison convention ------------------------------ *)

let test_clique_cutoffs_bit_identical () =
  List.iter
    (fun (n, q, eps) ->
      let g = Cg.build ~q Cg.Clique in
      Alcotest.(check (float 0.)) "null mean"
        (Dut_core.Local_stat.null_mean ~n ~q)
        (Cg.null_mean ~n g);
      Alcotest.(check (float 0.)) "far mean"
        (Dut_core.Local_stat.far_mean ~n ~q ~eps)
        (Cg.far_mean ~n g ~eps);
      Alcotest.(check (float 0.)) "midpoint"
        (Dut_core.Local_stat.midpoint_cutoff ~n ~q ~eps)
        (Cg.midpoint_cutoff ~n g ~eps);
      Alcotest.(check int) "alarm"
        (Dut_core.Local_stat.alarm_cutoff ~n ~q ~false_alarm:0.01)
        (Cg.alarm_cutoff ~n g ~false_alarm:0.01))
    [ (64, 10, 0.3); (1024, 100, 0.25); (256, 1024, 0.4); (16, 2000, 0.5) ]

let test_tie_rejects () =
  (* The convention: accept strictly below the cutoff, a tie rejects. *)
  Alcotest.(check bool) "midpoint tie rejects" false
    (Dut_core.Local_stat.accepts_midpoint ~cutoff:5. 5);
  Alcotest.(check bool) "midpoint below accepts" true
    (Dut_core.Local_stat.accepts_midpoint ~cutoff:5. 4);
  Alcotest.(check bool) "alarm tie alarms" false
    (Dut_core.Local_stat.accepts_alarm ~cutoff:5 5);
  Alcotest.(check bool) "alarm below accepts" true
    (Dut_core.Local_stat.accepts_alarm ~cutoff:5 4)

let test_vote_convention_agrees () =
  (* Both vote paths and both statistic paths decide through the same
     comparison helpers: recomputing each verdict by hand must agree. *)
  let n = 64 and q = 40 and eps = 0.3 in
  let rng = Dut_prng.Rng.create 7 in
  for _ = 1 to 200 do
    let samples = Array.init q (fun _ -> Dut_prng.Rng.int rng n) in
    let c = Dut_core.Local_stat.collisions_bounded ~n samples in
    Alcotest.(check bool) "midpoint"
      (Dut_core.Local_stat.accepts_midpoint
         ~cutoff:(Dut_core.Local_stat.midpoint_cutoff ~n ~q ~eps)
         c)
      (Dut_core.Local_stat.vote_midpoint ~n ~q ~eps samples);
    Alcotest.(check bool) "alarm"
      (Dut_core.Local_stat.accepts_alarm
         ~cutoff:(Dut_core.Local_stat.alarm_cutoff ~n ~q ~false_alarm:0.05)
         c)
      (Dut_core.Local_stat.vote_alarm ~n ~q ~false_alarm:0.05 samples)
  done

(* The Poisson (mean <= 50) and Cornish–Fisher (mean > 50) regimes must
   agree to +-1 where they meet. The clique's mean sweeps continuously
   through the handoff as n varies, so compare the Poisson cutoff
   against the CF formula (replicated here) on means in (40, 50]. *)
let cf_cutoff ~n ~edges ~triangles ~false_alarm =
  let mean = edges /. float_of_int n in
  let nf = float_of_int n in
  let sigma = sqrt (mean *. (1. -. (1. /. nf))) in
  let mu3 = mean +. (6. *. triangles /. (nf *. nf)) in
  let gamma = mu3 /. (sigma ** 3.) in
  let z = Dut_stats.Tail.normal_isf false_alarm in
  int_of_float
    (ceil (mean +. (sigma *. (z +. (gamma *. ((z *. z) -. 1.) /. 6.)))))

let test_poisson_cf_handoff () =
  List.iter
    (fun false_alarm ->
      for q = 100 to 140 do
        let edges = float_of_int (q * (q - 1) / 2) in
        let triangles =
          float_of_int (q * (q - 1) * (q - 2) / 6)
        in
        (* n chosen so the null mean lands in (40, 50]. *)
        let n = int_of_float (ceil (edges /. 50.)) in
        let mean = edges /. float_of_int n in
        if mean > 40. && mean <= 50. then begin
          let poisson =
            Dut_core.Local_stat.alarm_cutoff_edges ~n ~edges ~triangles
              ~false_alarm
          in
          let cf = cf_cutoff ~n ~edges ~triangles ~false_alarm in
          if abs (poisson - cf) > 1 then
            Alcotest.failf
              "handoff: q=%d n=%d mean=%.2f p=%.3f poisson=%d cf=%d" q n mean
              false_alarm poisson cf
        end
      done)
    [ 0.1; 0.05; 0.02 ]

let test_cf_single_rounding () =
  (* The fixed rounding: when the CF quantile lands exactly on an
     integer the cutoff must equal it, not exceed it by one. With
     false_alarm = 0.5 the normal quantile term vanishes at z = 0, so
     the quantile is mean - sigma*gamma/6; scan for near-integer hits
     and check the cutoff is ceil(quantile), never ceil(quantile)+1. *)
  for q = 200 to 260 do
    let n = 256 in
    let g = Cg.build ~q Cg.Clique in
    let cut = Cg.alarm_cutoff ~n g ~false_alarm:0.5 in
    let edges = float_of_int (Cg.edge_count g) in
    let triangles = float_of_int (Cg.triangle_count g) in
    let mean = edges /. float_of_int n in
    if mean > 50. then begin
      let expected = cf_cutoff ~n ~edges ~triangles ~false_alarm:0.5 in
      Alcotest.(check int) (Printf.sprintf "q=%d" q) expected cut
    end
  done

(* -- collisions_bounded path split -------------------------------------- *)

let prop_collisions_bounded_path_split =
  (* Sort path vs scratch-histogram path across the universe-size
     boundary. *)
  let limit = 1 lsl 16 in
  QCheck.Test.make ~name:"collisions_bounded paths agree at the boundary"
    ~count:120
    QCheck.(pair (int_range 0 300) small_int)
    (fun (q, seed) ->
      let rng = Dut_prng.Rng.create seed in
      List.for_all
        (fun n ->
          (* Samples concentrated so collisions actually occur. *)
          let samples =
            Array.init q (fun _ -> Dut_prng.Rng.int rng (min n (max 1 (q / 2 + 1))))
          in
          Dut_core.Local_stat.collisions_bounded ~n samples
          = Dut_core.Local_stat.collisions samples)
        [ limit - 1; limit; limit + 1 ])

(* -- Rule-search envelope ----------------------------------------------- *)

let envelope_inputs =
  QCheck.(
    triple (int_range 1 8) (float_range 0.01 0.99)
      (list_of_size (Gen.int_range 1 6) (float_range 0.01 0.99)))

let prop_envelope_convex =
  QCheck.Test.make ~name:"rule-search envelope is convex in lambda" ~count:200
    (QCheck.pair envelope_inputs (QCheck.pair (QCheck.float_range 0. 1.) (QCheck.float_range 0. 1.)))
    (fun ((k, a0, far), (l1, l2)) ->
      let a_far = Array.of_list far in
      let f l = Dut_core.Rule_search.envelope_value ~k ~a0 ~a_far l in
      f ((l1 +. l2) /. 2.) <= ((f l1 +. f l2) /. 2.) +. 1e-9)

let prop_best_rule_value_is_envelope_min =
  QCheck.Test.make ~name:"best_rule_value pins the envelope minimum" ~count:100
    envelope_inputs (fun (k, a0, far) ->
      let a_far = Array.of_list far in
      let best = Dut_core.Rule_search.best_rule_value ~k ~a0 ~a_far in
      let f l = Dut_core.Rule_search.envelope_value ~k ~a0 ~a_far l in
      (* Never above any envelope point (it is a min of the envelope)… *)
      let dominated =
        List.for_all
          (fun i -> best <= f (float_of_int i /. 40.) +. 1e-9)
          (List.init 41 Fun.id)
      in
      (* …and at least as good as a fine grid scan (the refinement only
         improves on the bracketing grid). *)
      let grid_min =
        List.fold_left
          (fun acc i -> Float.min acc (f (float_of_int i /. 2000.)))
          infinity (List.init 2001 Fun.id)
      in
      dominated && best <= grid_min +. 1e-9)

(* -- Service codec: graph queries --------------------------------------- *)

module J = Dut_obs.Json
module Q = Dut_service.Query

let roundtrip q =
  match J.parse (Q.canonical q) with
  | exception J.Malformed msg -> Alcotest.failf "canonical does not parse: %s" msg
  | j -> (
      match Q.of_json j with
      | Ok q' -> Alcotest.(check string) "roundtrip" (Q.canonical q) (Q.canonical q')
      | Error msg -> Alcotest.failf "roundtrip rejected: %s" msg)

let test_codec_graph_roundtrip () =
  List.iter
    (fun family ->
      roundtrip
        (Q.Power
           {
             tester = Q.Graph { family; t = 2 };
             ell = 4;
             eps = 0.4;
             k = 8;
             q = 16;
             trials = 40;
             level = 0.72;
             seed = 2019;
             adaptive = true;
           });
      roundtrip
        (Q.Critical
           {
             tester = Q.Graph { family; t = 1 };
             ell = 3;
             eps = 0.4;
             k = 8;
             trials = 40;
             level = 0.72;
             seed = 2019;
             adaptive = true;
             hi = Some 64;
             guess = None;
           }))
    [ Q.Clique; Q.Matching; Q.Bipartite; Q.Regular 4 ]

let test_codec_rejects_odd_degree () =
  match
    Q.of_json
      (J.parse
         {|{"kind":"power","tester":"graph","family":"regular","degree":3,"ell":4,"eps":0.4,"k":8,"q":16}|})
  with
  | Ok _ -> Alcotest.fail "odd degree accepted"
  | Error msg ->
      Alcotest.(check bool) "names the field" true
        (Astring.String.is_infix ~affix:"degree" msg)

let test_graph_query_eval_matches_threshold () =
  (* A clique graph query IS the threshold tester: eval must agree. *)
  let base tester =
    Q.Power
      {
        tester;
        ell = 4;
        eps = 0.35;
        k = 6;
        q = 20;
        trials = 60;
        level = 0.72;
        seed = 2019;
        adaptive = true;
      }
  in
  Alcotest.(check bool) "same verdict" true
    (Q.eval (base (Q.Graph { family = Q.Clique; t = 2 }))
    = Q.eval (base (Q.Threshold 2)))

let () =
  let qcheck = QCheck_alcotest.to_alcotest in
  Alcotest.run "dut_graph"
    [
      ( "construction",
        [
          Alcotest.test_case "clique counts" `Quick test_clique_counts;
          Alcotest.test_case "matching counts" `Quick test_matching_counts;
          Alcotest.test_case "bipartite counts" `Quick test_bipartite_counts;
          Alcotest.test_case "regular is regular" `Quick test_regular_is_regular;
          Alcotest.test_case "regular deterministic" `Quick
            test_regular_deterministic;
          Alcotest.test_case "regular infeasible" `Quick test_regular_infeasible;
          Alcotest.test_case "explicit validation" `Quick test_explicit_validation;
          Alcotest.test_case "triangles vs brute force" `Quick
            test_triangle_count_brute_force;
        ] );
      ( "statistic",
        [
          qcheck prop_statistic_matches_brute_force;
          Alcotest.test_case "length check" `Quick test_statistic_length_check;
        ] );
      ( "cutoffs",
        [
          Alcotest.test_case "clique = Local_stat (bit-identical)" `Quick
            test_clique_cutoffs_bit_identical;
          Alcotest.test_case "ties reject" `Quick test_tie_rejects;
          Alcotest.test_case "vote convention" `Quick test_vote_convention_agrees;
          Alcotest.test_case "Poisson/CF handoff +-1" `Quick
            test_poisson_cf_handoff;
          Alcotest.test_case "CF rounds up exactly once" `Quick
            test_cf_single_rounding;
        ] );
      ( "kernels",
        [ qcheck prop_collisions_bounded_path_split ] );
      ( "rule_search",
        [
          qcheck prop_envelope_convex;
          qcheck prop_best_rule_value_is_envelope_min;
        ] );
      ( "service",
        [
          Alcotest.test_case "graph codec roundtrip" `Quick
            test_codec_graph_roundtrip;
          Alcotest.test_case "odd degree rejected" `Quick
            test_codec_rejects_odd_degree;
          Alcotest.test_case "clique query = threshold query" `Slow
            test_graph_query_eval_matches_threshold;
        ] );
    ]
