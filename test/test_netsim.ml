(* Tests for dut_netsim: graphs, BFS/spanning trees, the synchronous
   message-passing simulator, and the LOCAL-model uniformity tester. *)

open Dut_netsim

(* -- Graph ------------------------------------------------------------ *)

let test_create_and_neighbors () =
  let g = Graph.create 4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  Alcotest.(check int) "n" 4 (Graph.n g);
  Alcotest.(check int) "edges" 4 (Graph.edge_count g);
  Alcotest.(check (list int)) "neighbors of 0" [ 1; 3 ] (Graph.neighbors g 0);
  Alcotest.(check int) "degree" 2 (Graph.degree g 1);
  Alcotest.(check bool) "mem edge" true (Graph.mem_edge g 2 3);
  Alcotest.(check bool) "non edge" false (Graph.mem_edge g 0 2)

let test_create_errors () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.create: self-loop")
    (fun () -> ignore (Graph.create 3 [ (1, 1) ]));
  Alcotest.check_raises "duplicate" (Invalid_argument "Graph.create: duplicate edge")
    (fun () -> ignore (Graph.create 3 [ (0, 1); (1, 0) ]));
  Alcotest.check_raises "range"
    (Invalid_argument "Graph.create: endpoint out of range") (fun () ->
      ignore (Graph.create 3 [ (0, 3) ]))

let test_topologies_shapes () =
  Alcotest.(check int) "path diameter" 9 (Graph.diameter (Graph.path 10));
  Alcotest.(check int) "star diameter" 2 (Graph.diameter (Graph.star 10));
  Alcotest.(check int) "complete diameter" 1 (Graph.diameter (Graph.complete 10));
  Alcotest.(check int) "cycle diameter" 5 (Graph.diameter (Graph.cycle 10));
  Alcotest.(check int) "grid diameter" 6 (Graph.diameter (Graph.grid 4 4));
  Alcotest.(check int) "path edges" 9 (Graph.edge_count (Graph.path 10));
  Alcotest.(check int) "complete edges" 45 (Graph.edge_count (Graph.complete 10))

let test_binary_tree_shape () =
  let g = Graph.binary_tree 7 in
  Alcotest.(check int) "edges" 6 (Graph.edge_count g);
  Alcotest.(check (list int)) "root children" [ 1; 2 ] (Graph.neighbors g 0);
  (* Depth of the complete binary tree on 7 nodes is 2; diameter 4. *)
  Alcotest.(check int) "diameter" 4 (Graph.diameter g)

let test_random_connected () =
  let rng = Dut_prng.Rng.create 200 in
  for _ = 1 to 20 do
    let n = 2 + Dut_prng.Rng.int rng 30 in
    let g = Graph.random_connected rng ~n ~extra_edges:(Dut_prng.Rng.int rng 10) in
    Alcotest.(check bool) "connected" true (Graph.is_connected g);
    Alcotest.(check bool) "enough edges" true (Graph.edge_count g >= n - 1)
  done

let test_bfs_distances () =
  let g = Graph.path 5 in
  let dist, parent = Graph.bfs g ~root:0 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3; 4 |] dist;
  Alcotest.(check (array int)) "parents" [| -1; 0; 1; 2; 3 |] parent

let test_bfs_disconnected () =
  let g = Graph.create 3 [ (0, 1) ] in
  let dist, _ = Graph.bfs g ~root:0 in
  Alcotest.(check bool) "unreachable" true (dist.(2) = max_int);
  Alcotest.(check bool) "not connected" false (Graph.is_connected g)

let test_single_node () =
  let g = Graph.create 1 [] in
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  Alcotest.(check int) "diameter" 0 (Graph.diameter g)

(* -- Span_tree ---------------------------------------------------------- *)

let test_span_tree_path () =
  let t = Span_tree.of_graph (Graph.path 5) ~root:0 in
  Alcotest.(check int) "height" 4 t.Span_tree.height;
  Alcotest.(check (array int)) "depths" [| 0; 1; 2; 3; 4 |] t.Span_tree.depth;
  Alcotest.(check (list int)) "children of 1" [ 2 ] t.Span_tree.children.(1)

let test_span_tree_star () =
  let t = Span_tree.of_graph (Graph.star 6) ~root:0 in
  Alcotest.(check int) "height" 1 t.Span_tree.height;
  Alcotest.(check int) "root fan-out" 5 (List.length t.Span_tree.children.(0))

let test_span_tree_sizes () =
  let t = Span_tree.of_graph (Graph.path 4) ~root:0 in
  Alcotest.(check (array int)) "subtree sizes" [| 4; 3; 2; 1 |]
    (Span_tree.subtree_sizes t)

let test_span_tree_ancestor () =
  let t = Span_tree.of_graph (Graph.path 4) ~root:0 in
  Alcotest.(check bool) "root is ancestor" true (Span_tree.is_ancestor t 0 3);
  Alcotest.(check bool) "reflexive" true (Span_tree.is_ancestor t 2 2);
  Alcotest.(check bool) "not descendant" false (Span_tree.is_ancestor t 3 0)

let test_span_tree_disconnected () =
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Span_tree.of_graph: disconnected graph") (fun () ->
      ignore (Span_tree.of_graph (Graph.create 2 []) ~root:0))

(* -- Sync_net ------------------------------------------------------------ *)

let test_flood_broadcast () =
  (* Node 0 floods a token; after diameter rounds everyone has it. *)
  let g = Graph.path 6 in
  let rng = Dut_prng.Rng.create 201 in
  let logic =
    {
      Sync_net.init = (fun node _ -> node = 0);
      step =
        (fun ~round:_ ~node _coins has inbox ->
          let has_now = has || inbox <> [] in
          if has_now then (true, List.map (fun v -> (v, ())) (Graph.neighbors g node))
          else (false, []));
    }
  in
  let states, _ = Sync_net.run ~graph:g ~rng ~rounds:6 ~logic in
  Alcotest.(check bool) "all reached" true (Array.for_all Fun.id states)

let test_rounds_limit_propagation () =
  (* With too few rounds the token cannot reach the far end. *)
  let g = Graph.path 6 in
  let rng = Dut_prng.Rng.create 202 in
  let logic =
    {
      Sync_net.init = (fun node _ -> node = 0);
      step =
        (fun ~round:_ ~node _coins has inbox ->
          let has_now = has || inbox <> [] in
          if has_now then (true, List.map (fun v -> (v, ())) (Graph.neighbors g node))
          else (false, []));
    }
  in
  let states, _ = Sync_net.run ~graph:g ~rng ~rounds:3 ~logic in
  Alcotest.(check bool) "node 5 not reached in 3 rounds" false states.(5)

let test_non_neighbor_rejected () =
  let g = Graph.path 3 in
  let rng = Dut_prng.Rng.create 203 in
  let logic =
    {
      Sync_net.init = (fun _ _ -> ());
      step = (fun ~round:_ ~node _ () _ -> if node = 0 then ((), [ (2, ()) ]) else ((), []));
    }
  in
  Alcotest.check_raises "non-neighbor"
    (Invalid_argument "Sync_net.run: node 0 sent to non-neighbor 2") (fun () ->
      ignore (Sync_net.run ~graph:g ~rng ~rounds:1 ~logic))

let test_message_counter () =
  let g = Graph.complete 4 in
  let rng = Dut_prng.Rng.create 204 in
  let logic =
    {
      Sync_net.init = (fun _ _ -> ());
      step =
        (fun ~round:_ ~node _ () _ ->
          ((), List.map (fun v -> (v, ())) (Graph.neighbors g node)));
    }
  in
  let _, messages = Sync_net.run ~graph:g ~rng ~rounds:2 ~logic in
  (* 4 nodes x 3 neighbors x 2 rounds. *)
  Alcotest.(check int) "messages" 24 messages

let test_deterministic_execution () =
  let g = Graph.cycle 5 in
  let run seed =
    let rng = Dut_prng.Rng.create seed in
    let logic =
      {
        Sync_net.init = (fun _ coins -> Dut_prng.Rng.int coins 1000);
        step =
          (fun ~round:_ ~node:_ coins state inbox ->
            (state + List.fold_left ( + ) (Dut_prng.Rng.int coins 10) inbox, []));
      }
    in
    fst (Sync_net.run ~graph:g ~rng ~rounds:3 ~logic)
  in
  Alcotest.(check (array int)) "same seed, same states" (run 5) (run 5)

(* -- Local_tester --------------------------------------------------------- *)

let test_local_tester_power_and_costs () =
  let ell = 5 in
  let n = 1 lsl (ell + 1) in
  let eps = 0.3 in
  let graph = Dut_netsim.Graph.grid 4 4 in
  let k = Graph.n graph in
  let q = 4 * int_of_float (Dut_core.Bounds.fmo_threshold_upper ~n ~k ~eps) in
  let rng = Dut_prng.Rng.create 205 in
  let t =
    Local_tester.make ~graph ~n ~eps ~q ~calibration_trials:200
      ~rng:(Dut_prng.Rng.split rng)
  in
  (* Power. *)
  let trials = 60 in
  let ok_unif = ref 0 and ok_far = ref 0 in
  for _ = 1 to trials do
    let r = Dut_prng.Rng.split rng in
    let ru = Local_tester.run t r (Dut_protocol.Network.uniform_source ~n) in
    if ru.accept then incr ok_unif;
    Alcotest.(check bool) "verdict propagates" true ru.all_agree;
    Alcotest.(check int) "round budget" ((2 * Local_tester.height t) + 1) ru.rounds;
    (* One count and one verdict per tree edge. *)
    Alcotest.(check int) "messages = 2(k-1)" (2 * (k - 1)) ru.messages;
    (* Subtree counts fit in lg(k+1) bits: CONGEST-compatible. *)
    if ru.max_message_bits > 5 then
      Alcotest.failf "message too wide for CONGEST: %d bits" ru.max_message_bits;
    Alcotest.(check int) "local time" (q + ru.rounds) ru.local_time;
    let d = Dut_dist.Paninski.random ~ell ~eps r in
    if not (Local_tester.run t r (Dut_protocol.Network.of_paninski d)).accept then
      incr ok_far
  done;
  if float_of_int !ok_unif /. float_of_int trials < 0.7 then
    Alcotest.failf "uniform acceptance too low (%d/%d)" !ok_unif trials;
  if float_of_int !ok_far /. float_of_int trials < 0.7 then
    Alcotest.failf "far rejection too low (%d/%d)" !ok_far trials

let test_local_tester_single_node () =
  (* Degenerate network: one node, zero communication. *)
  let rng = Dut_prng.Rng.create 206 in
  let graph = Graph.create 1 [] in
  let n = 64 in
  let t =
    Local_tester.make ~graph ~n ~eps:0.3 ~q:500 ~calibration_trials:100
      ~rng:(Dut_prng.Rng.split rng)
  in
  let r = Local_tester.run t rng (Dut_protocol.Network.uniform_source ~n) in
  Alcotest.(check int) "no messages" 0 r.messages;
  Alcotest.(check bool) "decides" true r.all_agree

let test_local_tester_concurrent_message_counts () =
  (* Runs on two domains at once: each result counts only its own
     execution, one count and one verdict per tree edge. *)
  let graph = Graph.grid 4 4 and n = 64 and rng = Dut_prng.Rng.create 208 in
  let t =
    Local_tester.make ~graph ~n ~eps:0.3 ~q:40 ~calibration_trials:50
      ~rng:(Dut_prng.Rng.split rng)
  in
  let run r = Local_tester.run t r (Dut_protocol.Network.uniform_source ~n) in
  Array.iter
    (fun (r : Local_tester.result) ->
      Alcotest.(check int) "messages = 2(k-1)" (2 * (Graph.n graph - 1)) r.messages)
    (Dut_engine.Parallel.map ~jobs:2 run (Dut_prng.Rng.split_n rng 64))

let test_local_tester_errors () =
  let rng = Dut_prng.Rng.create 207 in
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Span_tree.of_graph: disconnected graph") (fun () ->
      ignore
        (Local_tester.make ~graph:(Graph.create 2 []) ~n:64 ~eps:0.3 ~q:10
           ~calibration_trials:10 ~rng))

(* -- Gossip ---------------------------------------------------------------- *)

let test_push_sum_conserves_mass () =
  (* The sum of value/weight-weighted contributions is conserved: on a
     connected graph the estimates approach the average. *)
  let rng = Dut_prng.Rng.create 230 in
  let g = Graph.complete 16 in
  let values = Array.init 16 float_of_int in
  let truth = 7.5 in
  let estimates = Gossip.push_sum ~graph:g ~rng ~values ~rounds:60 in
  Array.iter
    (fun e ->
      if Float.abs (e -. truth) > 0.05 then
        Alcotest.failf "estimate %f far from %f" e truth)
    estimates

let test_push_sum_zero_rounds () =
  let rng = Dut_prng.Rng.create 231 in
  let g = Graph.path 4 in
  let values = [| 1.; 2.; 3.; 4. |] in
  Alcotest.(check (array (float 1e-9))) "identity at zero rounds" values
    (Gossip.push_sum ~graph:g ~rng ~values ~rounds:0)

let test_push_sum_constant_input () =
  let rng = Dut_prng.Rng.create 232 in
  let g = Graph.cycle 8 in
  let estimates =
    Gossip.push_sum ~graph:g ~rng ~values:(Array.make 8 3.) ~rounds:25
  in
  Array.iter (fun e -> Alcotest.(check (float 1e-9)) "constant stays" 3. e) estimates

let test_push_sum_errors () =
  let rng = Dut_prng.Rng.create 233 in
  Alcotest.check_raises "value count"
    (Invalid_argument "Gossip.push_sum: one value per node required") (fun () ->
      ignore (Gossip.push_sum ~graph:(Graph.path 3) ~rng ~values:[| 1. |] ~rounds:1))

let test_rounds_to_tolerance_orders_topologies () =
  (* Gossip mixes faster on a clique than on a path. *)
  let rng = Dut_prng.Rng.create 234 in
  let values = Array.init 16 (fun i -> if i < 8 then 1. else 0.) in
  let rounds g =
    match
      Gossip.rounds_to_tolerance ~graph:g ~rng:(Dut_prng.Rng.split rng) ~values
        ~tol:0.05 ~max_rounds:5000
    with
    | Some r -> r
    | None -> Alcotest.fail "did not converge"
  in
  let clique = rounds (Graph.complete 16) in
  let path = rounds (Graph.path 16) in
  Alcotest.(check bool)
    (Printf.sprintf "clique (%d) mixes faster than path (%d)" clique path)
    true (clique < path)

let test_decentralized_tester_power () =
  let ell = 5 in
  let n = 1 lsl (ell + 1) in
  let eps = 0.3 in
  let graph = Graph.grid 4 4 in
  let k = Graph.n graph in
  let q = 5 * int_of_float (Dut_core.Bounds.fmo_threshold_upper ~n ~k ~eps) in
  let rng = Dut_prng.Rng.create 235 in
  let tester =
    Gossip.decentralized_tester ~graph ~n ~eps ~q ~gossip_rounds:120
      ~calibration_trials:200 ~rng:(Dut_prng.Rng.split rng)
  in
  let p = Dut_core.Evaluate.measure ~trials:60 ~rng ~ell ~eps tester in
  Alcotest.(check bool)
    (Printf.sprintf "refereeless tester works (unif %.2f, far %.2f)"
       p.uniform_accept.estimate p.far_reject.estimate)
    true
    (Float.min p.uniform_accept.estimate p.far_reject.estimate >= 0.7)

let prop_topologies_connected =
  QCheck.Test.make ~name:"standard topologies are connected" ~count:50
    QCheck.(int_range 3 40)
    (fun k ->
      List.for_all Graph.is_connected
        [ Graph.path k; Graph.cycle k; Graph.star k; Graph.complete k;
          Graph.binary_tree k ])

let prop_bfs_distance_triangle =
  QCheck.Test.make ~name:"BFS distances drop by exactly 1 along parents" ~count:50
    QCheck.(pair small_int (int_range 2 25))
    (fun (seed, k) ->
      let rng = Dut_prng.Rng.create seed in
      let g = Graph.random_connected rng ~n:k ~extra_edges:k in
      let dist, parent = Graph.bfs g ~root:0 in
      Array.for_all Fun.id
        (Array.mapi
           (fun v p -> if p < 0 then true else dist.(v) = dist.(p) + 1)
           parent))

let () =
  Alcotest.run "dut_netsim"
    [
      ( "graph",
        [
          Alcotest.test_case "create/neighbors" `Quick test_create_and_neighbors;
          Alcotest.test_case "errors" `Quick test_create_errors;
          Alcotest.test_case "topology shapes" `Quick test_topologies_shapes;
          Alcotest.test_case "binary tree" `Quick test_binary_tree_shape;
          Alcotest.test_case "random connected" `Quick test_random_connected;
          Alcotest.test_case "bfs distances" `Quick test_bfs_distances;
          Alcotest.test_case "bfs disconnected" `Quick test_bfs_disconnected;
          Alcotest.test_case "single node" `Quick test_single_node;
        ] );
      ( "span_tree",
        [
          Alcotest.test_case "path" `Quick test_span_tree_path;
          Alcotest.test_case "star" `Quick test_span_tree_star;
          Alcotest.test_case "subtree sizes" `Quick test_span_tree_sizes;
          Alcotest.test_case "ancestor" `Quick test_span_tree_ancestor;
          Alcotest.test_case "disconnected" `Quick test_span_tree_disconnected;
        ] );
      ( "sync_net",
        [
          Alcotest.test_case "flood reaches everyone" `Quick test_flood_broadcast;
          Alcotest.test_case "round limit" `Quick test_rounds_limit_propagation;
          Alcotest.test_case "non-neighbor rejected" `Quick test_non_neighbor_rejected;
          Alcotest.test_case "message counter" `Quick test_message_counter;
          Alcotest.test_case "deterministic" `Quick test_deterministic_execution;
        ] );
      ( "local_tester",
        [
          Alcotest.test_case "power and costs" `Slow test_local_tester_power_and_costs;
          Alcotest.test_case "single node" `Quick test_local_tester_single_node;
          Alcotest.test_case "concurrent message counts" `Quick
            test_local_tester_concurrent_message_counts;
          Alcotest.test_case "errors" `Quick test_local_tester_errors;
        ] );
      ( "gossip",
        [
          Alcotest.test_case "converges to the average" `Quick test_push_sum_conserves_mass;
          Alcotest.test_case "zero rounds" `Quick test_push_sum_zero_rounds;
          Alcotest.test_case "constant input" `Quick test_push_sum_constant_input;
          Alcotest.test_case "errors" `Quick test_push_sum_errors;
          Alcotest.test_case "topology ordering" `Quick
            test_rounds_to_tolerance_orders_topologies;
          Alcotest.test_case "refereeless tester power" `Slow
            test_decentralized_tester_power;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_topologies_connected; prop_bfs_distance_triangle ] );
    ]
