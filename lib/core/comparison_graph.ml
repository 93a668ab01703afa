type family =
  | Clique
  | Matching
  | Bipartite
  | Random_regular of { degree : int; seed : int }
  | Explicit of (int * int) array

type t = {
  q : int;
  family : family;
  (* Flattened edge list [|u0;v0;u1;v1;...|] with u < v, sorted; empty
     for the clique, whose statistic goes through the counting-sort
     collision kernel instead of an O(q^2) edge walk. *)
  edge_ends : int array;
  edge_count : int;
  triangle_count : int;
  (* Float edge/triangle counts fed to the cutoff core. For the clique
     these are computed by the same C(q,2)/C(q,3) float expressions
     Local_stat's clique wrappers use, so clique cutoffs equal
     Local_stat's by construction. *)
  edges_f : float;
  triangles_f : float;
}

let family_name = function
  | Clique -> "clique"
  | Matching -> "matching"
  | Bipartite -> "bipartite"
  | Random_regular { degree; _ } -> Printf.sprintf "regular%d" degree
  | Explicit _ -> "explicit"

(* -- Construction ------------------------------------------------------- *)

let edge_key ~q u v = (u * q) + v

let normalize_edge name q (u, v) =
  if u < 0 || v < 0 || u >= q || v >= q then
    invalid_arg (Printf.sprintf "%s: edge endpoint outside [0,q)" name);
  if u = v then invalid_arg (Printf.sprintf "%s: self-loop" name);
  if u < v then (u, v) else (v, u)

let sort_edges pairs =
  List.sort
    (fun (a, b) (c, d) ->
      match Int.compare a c with 0 -> Int.compare b d | o -> o)
    pairs

let flatten_edges pairs =
  let m = List.length pairs in
  let ends = Array.make (2 * m) 0 in
  List.iteri
    (fun i (u, v) ->
      ends.(2 * i) <- u;
      ends.((2 * i) + 1) <- v)
    pairs;
  ends

(* Triangle count by sorted-adjacency merge: each triangle {a<b<c} is
   counted exactly once, at its lexicographically least edge (a,b) with
   common neighbour c > b. O(sum over edges of deg). *)
let count_triangles ~q pairs =
  let adj = Array.make q [] in
  List.iter
    (fun (u, v) ->
      adj.(u) <- v :: adj.(u);
      adj.(v) <- u :: adj.(v))
    pairs;
  let adj = Array.map (fun l -> Array.of_list (List.sort_uniq Int.compare l)) adj in
  let common_above floor a b =
    let la = Array.length a and lb = Array.length b in
    let rec go i j acc =
      if i >= la || j >= lb then acc
      else if a.(i) < b.(j) then go (i + 1) j acc
      else if a.(i) > b.(j) then go i (j + 1) acc
      else go (i + 1) (j + 1) (if a.(i) > floor then acc + 1 else acc)
    in
    go 0 0 0
  in
  List.fold_left
    (fun acc (u, v) -> acc + common_above v adj.(u) adj.(v))
    0 pairs

(* Deterministic random d-regular graph: a circulant base (always
   simple and d-regular for d <= q-1, with the q/2 chord when d is odd)
   randomized by double-edge swaps. Each swap replaces edges (a,b),(c,d)
   with (a,d),(c,b) when that keeps the graph simple, preserving every
   degree; 10·m accepted-or-skipped proposals mix the edge set. Fully
   determined by (q, degree, seed). *)
let random_regular_edges ~q ~degree ~seed =
  if degree < 1 || degree > q - 1 then
    invalid_arg "Comparison_graph: regular degree outside [1, q-1]";
  if degree * q mod 2 <> 0 then
    invalid_arg "Comparison_graph: regular graph needs q*degree even";
  let present = Hashtbl.create (q * degree) in
  let add u v = Hashtbl.replace present (edge_key ~q (min u v) (max u v)) () in
  let remove u v = Hashtbl.remove present (edge_key ~q (min u v) (max u v)) in
  let mem u v = Hashtbl.mem present (edge_key ~q (min u v) (max u v)) in
  for i = 0 to q - 1 do
    for j = 1 to degree / 2 do
      add i ((i + j) mod q)
    done;
    if degree land 1 = 1 && i < q / 2 then add i (i + (q / 2))
  done;
  let m = degree * q / 2 in
  let us = Array.make m 0 and vs = Array.make m 0 in
  let idx = ref 0 in
  Hashtbl.iter
    (fun key () ->
      us.(!idx) <- key / q;
      vs.(!idx) <- key mod q;
      incr idx)
    present;
  (* Hashtbl iteration order is implementation-defined; sort so the
     swap walk is a pure function of (q, degree, seed). *)
  let order = Array.init m Fun.id in
  Array.sort
    (fun i j -> Int.compare (edge_key ~q us.(i) vs.(i)) (edge_key ~q us.(j) vs.(j)))
    order;
  let us = Array.map (fun i -> us.(i)) order
  and vs = Array.map (fun i -> vs.(i)) order in
  let rng = Dut_prng.Rng.create (0x9e3779b9 lxor seed) in
  for _ = 1 to 10 * m do
    let i = Dut_prng.Rng.int rng m and j = Dut_prng.Rng.int rng m in
    if i <> j then begin
      let a = us.(i) and b = vs.(i) and c = us.(j) and d = vs.(j) in
      (* Propose (a,d) and (c,b). *)
      if a <> d && c <> b && (not (mem a d)) && not (mem c b) then begin
        remove a b;
        remove c d;
        add a d;
        add c b;
        us.(i) <- min a d;
        vs.(i) <- max a d;
        us.(j) <- min c b;
        vs.(j) <- max c b
      end
    end
  done;
  Array.to_list (Array.init m (fun i -> (us.(i), vs.(i))))

let clique_edges_f q = float_of_int q *. float_of_int (q - 1) /. 2.

let clique_triangles_f q =
  let qf = float_of_int q in
  qf *. (qf -. 1.) *. (qf -. 2.) /. 6.

let build ~q family =
  if q < 0 then invalid_arg "Comparison_graph.build: q must be non-negative";
  match family with
  | Clique ->
      {
        q;
        family;
        edge_ends = [||];
        edge_count = q * (q - 1) / 2;
        triangle_count = q * (q - 1) * (q - 2) / 6;
        edges_f = clique_edges_f q;
        triangles_f = clique_triangles_f q;
      }
  | _ ->
      let pairs =
        match family with
        | Clique -> assert false
        | Matching ->
            (* Consecutive disjoint pairs; an odd last sample is unmatched. *)
            List.init (q / 2) (fun i -> (2 * i, (2 * i) + 1))
        | Bipartite ->
            (* Complete bipartite between the first floor(q/2) samples
               and the rest. *)
            let a = q / 2 in
            List.concat_map
              (fun u -> List.init (q - a) (fun i -> (u, a + i)))
              (List.init a Fun.id)
        | Random_regular { degree; seed } ->
            random_regular_edges ~q ~degree ~seed
        | Explicit pairs ->
            let pairs =
              sort_edges
                (List.map
                   (normalize_edge "Comparison_graph.build" q)
                   (Array.to_list pairs))
            in
            let rec dup = function
              | (a, b) :: ((c, d) :: _ as rest) ->
                  if a = c && b = d then
                    invalid_arg "Comparison_graph.build: duplicate edge"
                  else dup rest
              | _ -> ()
            in
            dup pairs;
            pairs
      in
      let pairs = sort_edges pairs in
      let m = List.length pairs in
      let triangles = count_triangles ~q pairs in
      {
        q;
        family;
        edge_ends = flatten_edges pairs;
        edge_count = m;
        triangle_count = triangles;
        edges_f = float_of_int m;
        triangles_f = float_of_int triangles;
      }

let q t = t.q

let edge_count t = t.edge_count

let triangle_count t = t.triangle_count

let edges t =
  match t.family with
  | Clique ->
      (* The clique carries no explicit edge array; materialize it. *)
      let out = Array.make t.edge_count (0, 0) in
      let idx = ref 0 in
      for u = 0 to t.q - 1 do
        for v = u + 1 to t.q - 1 do
          out.(!idx) <- (u, v);
          incr idx
        done
      done;
      out
  | _ ->
      Array.init t.edge_count (fun i ->
          (t.edge_ends.(2 * i), t.edge_ends.((2 * i) + 1)))

let name t = family_name t.family

(* -- The statistic ------------------------------------------------------ *)

let statistic ~n t samples =
  if Array.length samples <> t.q then
    invalid_arg "Comparison_graph.statistic: sample count <> q";
  match t.family with
  | Clique -> Local_stat.collisions_bounded ~n samples
  | _ ->
      let ends = t.edge_ends in
      let acc = ref 0 in
      for i = 0 to t.edge_count - 1 do
        let u = Array.unsafe_get ends (2 * i)
        and v = Array.unsafe_get ends ((2 * i) + 1) in
        if Array.unsafe_get samples u = Array.unsafe_get samples v then incr acc
      done;
      !acc

(* -- Cutoffs (the shared core, graph-parameterized) --------------------- *)

let null_mean ~n t = Local_stat.null_mean_edges ~n ~edges:t.edges_f

let far_mean ~n t ~eps = Local_stat.far_mean_edges ~n ~edges:t.edges_f ~eps

let midpoint_cutoff ~n t ~eps =
  Local_stat.midpoint_cutoff_edges ~n ~edges:t.edges_f ~eps

let alarm_cutoff ~n t ~false_alarm =
  Local_stat.alarm_cutoff_edges ~n ~edges:t.edges_f ~triangles:t.triangles_f
    ~false_alarm

let vote_midpoint ~n ~eps t samples =
  Local_stat.accepts_midpoint ~cutoff:(midpoint_cutoff ~n t ~eps)
    (statistic ~n t samples)

let vote_alarm ~n ~false_alarm t samples =
  Local_stat.accepts_alarm ~cutoff:(alarm_cutoff ~n t ~false_alarm)
    (statistic ~n t samples)

(* -- Testers ------------------------------------------------------------ *)

let check ~n ~eps ~k ~q =
  if n <= 0 || k <= 0 || q < 0 then invalid_arg "Comparison_graph: bad sizes";
  if eps <= 0. || eps >= 1. then
    invalid_arg "Comparison_graph: eps out of (0,1)"

(* Cutoffs are functions of the tester alone: hoisted out of the player
   closure, computed once per tester. *)

let tester_fixed ~n ~eps ~k ~q ~t:thr family =
  check ~n ~eps ~k ~q;
  if thr < 1 || thr > k then
    invalid_arg "Comparison_graph.tester_fixed: t outside [1,k]";
  let g = build ~q family in
  (* The most detection-friendly per-player alarm rate that keeps the
     referee's null rejection probability (>= t alarms) under 1/3 with
     margin (0.18: room for Monte-Carlo noise and the tail model). At
     t = 1 this is the AND rule: any one alarm rejects. *)
  let false_alarm = Dut_stats.Tail.binomial_max_p ~k ~t:thr ~level:0.18 in
  let cutoff = alarm_cutoff ~n g ~false_alarm in
  let player ~index:_ _coins samples =
    Local_stat.accepts_alarm ~cutoff (statistic ~n g samples)
  in
  fun rng source ->
    Dut_protocol.Network.round_accept ~rng ~source ~k ~q ~player
      ~rule:(Dut_protocol.Rule.Reject_threshold thr)

(* One uniform round's reject count with midpoint-cutoff players: the
   calibration statistic. *)
let reject_count_midpoint ~n ~eps g k rng =
  let source = Dut_protocol.Network.uniform_source ~n in
  let cutoff = midpoint_cutoff ~n g ~eps in
  Dut_protocol.Network.round_fold ~rng ~source ~k ~q:g.q
    ~messenger:(fun ~index:_ _coins samples ->
      Local_stat.accepts_midpoint ~cutoff (statistic ~n g samples))
    ~init:0
    ~f:(fun rejects accept -> if accept then rejects else rejects + 1)

let tester_majority ~n ~eps ~k ~q ~calibration_trials ~rng family =
  check ~n ~eps ~k ~q;
  if calibration_trials <= 0 then
    invalid_arg "Comparison_graph.tester_majority: trials <= 0";
  let g = build ~q family in
  let calibration_rng = Dut_prng.Rng.split rng in
  let referee_cutoff =
    Dut_protocol.Calibrate.reject_count_cutoff ~trials:calibration_trials
      calibration_rng
      ~rejects:(fun r -> reject_count_midpoint ~n ~eps g k r)
      ~level:0.2
  in
  let cutoff = midpoint_cutoff ~n g ~eps in
  let player ~index:_ _coins samples =
    Local_stat.accepts_midpoint ~cutoff (statistic ~n g samples)
  in
  fun rng source ->
    Dut_protocol.Network.round_accept ~rng ~source ~k ~q ~player
      ~rule:(Dut_protocol.Rule.Reject_threshold referee_cutoff)
