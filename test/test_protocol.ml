(* Tests for dut_protocol: referee rules, the network round engine, and
   null calibration. *)

let bits l = Array.of_list l

(* -- Rule ------------------------------------------------------------- *)

let test_and_rule () =
  Alcotest.(check bool) "all accept" true
    (Dut_protocol.Rule.apply And (bits [ true; true; true ]));
  Alcotest.(check bool) "one reject" false
    (Dut_protocol.Rule.apply And (bits [ true; false; true ]))

let test_or_rule () =
  Alcotest.(check bool) "one accept" true
    (Dut_protocol.Rule.apply Or (bits [ false; true; false ]));
  Alcotest.(check bool) "none accept" false
    (Dut_protocol.Rule.apply Or (bits [ false; false ]))

let test_reject_threshold_rule () =
  let r t votes = Dut_protocol.Rule.apply (Reject_threshold t) (bits votes) in
  (* threshold 2: reject iff at least 2 rejections *)
  Alcotest.(check bool) "1 rejection accepted" true (r 2 [ true; false; true ]);
  Alcotest.(check bool) "2 rejections rejected" false (r 2 [ false; false; true ]);
  (* threshold 1 coincides with AND *)
  Alcotest.(check bool) "t=1 is AND (accept)" true (r 1 [ true; true ]);
  Alcotest.(check bool) "t=1 is AND (reject)" false (r 1 [ true; false ])

let test_reject_threshold_matches_paper_form () =
  (* Paper: f(x) = 1 exactly when sum x_i >= k - t. With k = 4, t = 2:
     accept iff at least 2 ones ... wait: sum >= k - t = 2.
     Our rule: accept iff rejections < t, i.e. ones > k - t. The paper's
     form uses >=; check the off-by-one convention explicitly: we accept
     on strictly fewer than t zeros. *)
  let r votes = Dut_protocol.Rule.apply (Reject_threshold 2) (bits votes) in
  Alcotest.(check bool) "3 ones, 1 zero" true (r [ true; true; true; false ]);
  Alcotest.(check bool) "2 ones, 2 zeros" false (r [ true; true; false; false ])

let test_accept_at_least () =
  let r votes = Dut_protocol.Rule.apply (Accept_at_least 3) (bits votes) in
  Alcotest.(check bool) "3 ones" true (r [ true; true; true; false ]);
  Alcotest.(check bool) "2 ones" false (r [ true; true; false; false ])

let test_majority () =
  let r votes = Dut_protocol.Rule.apply Majority (bits votes) in
  Alcotest.(check bool) "strict majority" true (r [ true; true; false ]);
  Alcotest.(check bool) "tie is reject" false (r [ true; false ])

let test_rule_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Rule.apply: no players")
    (fun () -> ignore (Dut_protocol.Rule.apply And [||]));
  Alcotest.check_raises "bad threshold"
    (Invalid_argument "Rule.apply: threshold must be positive") (fun () ->
      ignore (Dut_protocol.Rule.apply (Reject_threshold 0) (bits [ true ])))

let test_rule_names () =
  Alcotest.(check string) "and" "AND" (Dut_protocol.Rule.name And);
  Alcotest.(check string) "threshold" "reject>=3"
    (Dut_protocol.Rule.name (Reject_threshold 3));
  Alcotest.(check string) "majority" "majority" (Dut_protocol.Rule.name Majority)

(* -- Network ---------------------------------------------------------- *)

let const_source value _rng = value

(* A round's messages in player order, through the one round body. *)
let messages ~rng ~source ~k ~q messenger =
  Array.of_list
    (List.rev
       (Dut_protocol.Network.round_fold ~rng ~source ~k ~q ~messenger ~init:[]
          ~f:(fun acc m -> m :: acc)))

let test_round_basic () =
  (* Players vote accept iff every sample is even. *)
  let player ~index:_ _coins samples = Array.for_all (fun s -> s mod 2 = 0) samples in
  let votes =
    messages ~rng:(Dut_prng.Rng.create 100) ~source:(const_source 2) ~k:5 ~q:3
      player
  in
  Alcotest.(check int) "vote count" 5 (Array.length votes);
  Alcotest.(check bool) "all accept" true
    (Dut_protocol.Network.round_accept ~rng:(Dut_prng.Rng.create 100)
       ~source:(const_source 2) ~k:5 ~q:3 ~player ~rule:Dut_protocol.Rule.And)

let test_round_determinism () =
  let run seed =
    let player ~index:_ coins samples =
      (* Depends on both samples and private coins. *)
      (samples.(0) + Dut_prng.Rng.int coins 10) mod 2 = 0
    in
    messages ~rng:(Dut_prng.Rng.create seed)
      ~source:(fun r -> Dut_prng.Rng.int r 100)
      ~k:8 ~q:2 player
  in
  Alcotest.(check (array bool)) "same seed same votes" (run 7) (run 7);
  Alcotest.(check bool) "different seeds eventually differ" true
    (List.exists (fun s -> run s <> run 7) [ 8; 9; 10; 11 ])

let test_round_player_index () =
  (* Only even-indexed players accept; majority of 5 is 3 -> accept. *)
  let player ~index _coins _samples = index mod 2 = 0 in
  Alcotest.(check bool) "majority accepts" true
    (Dut_protocol.Network.round_accept ~rng:(Dut_prng.Rng.create 101)
       ~source:(const_source 0) ~k:5 ~q:1 ~player
       ~rule:Dut_protocol.Rule.Majority);
  Alcotest.(check (array bool)) "index-determined votes"
    [| true; false; true; false; true |]
    (messages ~rng:(Dut_prng.Rng.create 101) ~source:(const_source 0) ~k:5 ~q:1
       player)

let test_round_rates () =
  let rng = Dut_prng.Rng.create 102 in
  let messenger ~index _coins samples = (index, Array.length samples) in
  let seen =
    Dut_protocol.Network.round_rates ~rng ~source:(const_source 0)
      ~qs:[| 1; 5; 9 |] ~messenger ~init:[] ~f:(fun acc m -> m :: acc)
  in
  Alcotest.(check (list (pair int int)))
    "per-player sample counts, folded in index order"
    [ (2, 9); (1, 5); (0, 1) ] seen

let test_round_errors () =
  let rng = Dut_prng.Rng.create 103 in
  let player ~index:_ _ _ = true in
  let accept ~k ~q =
    ignore
      (Dut_protocol.Network.round_accept ~rng ~source:(const_source 0) ~k ~q
         ~player ~rule:Dut_protocol.Rule.And)
  in
  Alcotest.check_raises "k=0"
    (Invalid_argument "Network.round_fold: k must be positive") (fun () ->
      accept ~k:0 ~q:1);
  Alcotest.check_raises "q<0"
    (Invalid_argument "Network.round_fold: q must be non-negative") (fun () ->
      accept ~k:1 ~q:(-1));
  Alcotest.check_raises "rates: no players"
    (Invalid_argument "Network.round_rates: no players") (fun () ->
      Dut_protocol.Network.round_rates ~rng ~source:(const_source 0) ~qs:[||]
        ~messenger:player ~init:() ~f:(fun () _ -> ()))

let test_round_messages () =
  let messenger ~index _coins samples = index + Array.length samples in
  Alcotest.(check (array int)) "messages" [| 2; 3; 4; 5 |]
    (messages ~rng:(Dut_prng.Rng.create 104) ~source:(const_source 0) ~k:4 ~q:2
       messenger)

let test_sources () =
  let rng = Dut_prng.Rng.create 105 in
  let u = Dut_protocol.Network.uniform_source ~n:16 in
  for _ = 1 to 200 do
    let v = u rng in
    if v < 0 || v >= 16 then Alcotest.failf "uniform source out of range: %d" v
  done;
  let d = Dut_dist.Paninski.all_plus ~ell:2 ~eps:0.3 in
  let p = Dut_protocol.Network.of_paninski d in
  for _ = 1 to 200 do
    let v = p rng in
    if v < 0 || v >= 8 then Alcotest.failf "paninski source out of range: %d" v
  done;
  let s =
    Dut_protocol.Network.of_sampler
      (Dut_dist.Sampler.of_pmf (Dut_dist.Pmf.point_mass ~n:4 2))
  in
  Alcotest.(check int) "sampler source" 2 (s rng)

(* -- Calibrate -------------------------------------------------------- *)

let test_null_quantile () =
  let rng = Dut_prng.Rng.create 106 in
  (* Statistic = uniform on [0,1); 0.9-quantile ~ 0.9. *)
  let q =
    Dut_protocol.Calibrate.null_quantile ~trials:5000 rng
      ~stat:Dut_prng.Rng.unit_float ~p:0.9
  in
  Alcotest.(check bool) "near 0.9" true (Float.abs (q -. 0.9) < 0.05)

let test_reject_count_cutoff () =
  let rng = Dut_prng.Rng.create 107 in
  (* Rejects ~ Binomial(10, 0.3): cutoff must keep the empirical tail
     under the level. *)
  let rejects r = Dut_prng.Rng.binomial r 10 0.3 in
  let cutoff =
    Dut_protocol.Calibrate.reject_count_cutoff ~trials:4000 rng ~rejects
      ~level:0.1
  in
  (* Verify on fresh draws. *)
  let fresh = Dut_prng.Rng.create 108 in
  let exceeded = ref 0 in
  for _ = 1 to 4000 do
    if Dut_prng.Rng.binomial fresh 10 0.3 >= cutoff then incr exceeded
  done;
  Alcotest.(check bool) "empirical false alarm under level+slack" true
    (float_of_int !exceeded /. 4000. < 0.13)

let test_reject_count_cutoff_degenerate () =
  let rng = Dut_prng.Rng.create 109 in
  (* Constant statistic 5: cutoff must be 6 (reject only above). *)
  let cutoff =
    Dut_protocol.Calibrate.reject_count_cutoff ~trials:100 rng
      ~rejects:(fun _ -> 5)
      ~level:0.2
  in
  Alcotest.(check int) "one above the constant" 6 cutoff

let test_calibrate_errors () =
  let rng = Dut_prng.Rng.create 110 in
  Alcotest.check_raises "trials"
    (Invalid_argument "Calibrate.null_quantile: trials <= 0") (fun () ->
      ignore
        (Dut_protocol.Calibrate.null_quantile ~trials:0 rng
           ~stat:(fun _ -> 0.)
           ~p:0.5));
  Alcotest.check_raises "level"
    (Invalid_argument "Calibrate.reject_count_cutoff: level out of (0,1)")
    (fun () ->
      ignore
        (Dut_protocol.Calibrate.reject_count_cutoff ~trials:10 rng
           ~rejects:(fun _ -> 0)
           ~level:0.))

let prop_threshold_rule_monotone =
  (* Flipping a vote from reject to accept can only help acceptance. *)
  QCheck.Test.make ~name:"threshold rules are monotone" ~count:300
    QCheck.(pair (int_range 1 6) (list_of_size (Gen.int_range 1 8) bool))
    (fun (t, votes) ->
      let votes = Array.of_list votes in
      let t = min t (Array.length votes) in
      let accept = Dut_protocol.Rule.apply (Reject_threshold t) votes in
      (not accept)
      ||
      (* strengthen every vote to accept: must still accept *)
      Dut_protocol.Rule.apply (Reject_threshold t)
        (Array.map (fun _ -> true) votes))

let () =
  Alcotest.run "dut_protocol"
    [
      ( "rule",
        [
          Alcotest.test_case "AND" `Quick test_and_rule;
          Alcotest.test_case "OR" `Quick test_or_rule;
          Alcotest.test_case "reject threshold" `Quick test_reject_threshold_rule;
          Alcotest.test_case "paper form" `Quick test_reject_threshold_matches_paper_form;
          Alcotest.test_case "accept at least" `Quick test_accept_at_least;
          Alcotest.test_case "majority" `Quick test_majority;
          Alcotest.test_case "errors" `Quick test_rule_errors;
          Alcotest.test_case "names" `Quick test_rule_names;
        ] );
      ( "network",
        [
          Alcotest.test_case "basic round" `Quick test_round_basic;
          Alcotest.test_case "determinism" `Quick test_round_determinism;
          Alcotest.test_case "player index" `Quick test_round_player_index;
          Alcotest.test_case "rates" `Quick test_round_rates;
          Alcotest.test_case "errors" `Quick test_round_errors;
          Alcotest.test_case "messages" `Quick test_round_messages;
          Alcotest.test_case "sources" `Quick test_sources;
        ] );
      ( "calibrate",
        [
          Alcotest.test_case "null quantile" `Quick test_null_quantile;
          Alcotest.test_case "reject count cutoff" `Quick test_reject_count_cutoff;
          Alcotest.test_case "degenerate cutoff" `Quick test_reject_count_cutoff_degenerate;
          Alcotest.test_case "errors" `Quick test_calibrate_errors;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_threshold_rule_monotone ] );
    ]
