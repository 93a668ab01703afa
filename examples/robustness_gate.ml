(* Robustness gate (the paper's second motivating scenario): a
   distributed algorithm was designed assuming its input keys are
   uniformly distributed — say a hash-partitioned load balancer whose
   per-shard load guarantee only holds for near-uniform key streams.
   Before running it, the shards themselves verify the assumption with a
   distributed uniformity test: each shard watches a small sample of the
   key stream and sends one bit to the coordinator.

   We feed the gate three workloads:
   - a genuinely uniform key stream          -> the gate must let it pass;
   - a hard eps-far stream (Paninski family) -> the gate must block it;
   - a mildly skewed stream (eps/4)          -> either verdict is
     acceptable by the problem definition, and the measured per-shard
     overload shows why the gray zone is harmless.

   Run with:  dune exec examples/robustness_gate.exe *)

let max_shard_overload ~shards pmf =
  (* Relative overload of the hottest shard under hash partitioning
     (elements i mod shards). *)
  let n = Dut_dist.Pmf.size pmf in
  let load = Array.make shards 0. in
  for i = 0 to n - 1 do
    load.(i mod shards) <- load.(i mod shards) +. Dut_dist.Pmf.prob pmf i
  done;
  let ideal = 1. /. float_of_int shards in
  Array.fold_left (fun acc l -> Float.max acc (l /. ideal)) 0. load

let () =
  let rng = Dut_prng.Rng.create 11 in
  let ell = 7 in
  let n = 1 lsl (ell + 1) in
  let eps = 0.3 in
  let shards = 16 in
  let q = 4 * int_of_float (Dut_core.Bounds.fmo_threshold_upper ~n ~k:shards ~eps) in

  Printf.printf
    "load balancer: %d shards over %d keys; guarantee assumes uniform keys\n"
    shards n;
  Printf.printf "gate: distributed uniformity test, %d samples per shard\n\n" q;

  let gate =
    Dut_core.Comparison_graph.tester_majority ~n ~eps ~k:shards ~q
      ~calibration_trials:300 ~rng:(Dut_prng.Rng.split rng) Clique
  in

  let check name pmf =
    let sampler = Dut_dist.Sampler.of_pmf pmf in
    (* Standard amplification: majority of 5 independent gate rounds
       turns the 2/3 per-round guarantee into a reliable verdict. *)
    let passes = ref 0 in
    for _ = 1 to 5 do
      if
        gate (Dut_prng.Rng.split rng)
          (Dut_protocol.Network.of_sampler sampler)
      then incr passes
    done;
    let verdict = !passes >= 3 in
    Printf.printf "%-24s l1-dist %.3f  hottest shard %.2fx  gate: %s\n" name
      (Dut_dist.Distance.distance_to_uniformity pmf)
      (max_shard_overload ~shards pmf)
      (if verdict then "PASS" else "BLOCK")
  in

  check "uniform keys" (Dut_dist.Pmf.uniform n);
  check "eps-far keys"
    (Dut_dist.Paninski.pmf (Dut_dist.Paninski.random ~ell ~eps rng));
  check "mildly skewed keys"
    (Dut_dist.Paninski.pmf (Dut_dist.Paninski.random ~ell ~eps:(eps /. 4.) rng));

  print_newline ();
  (* Why the gray zone is fine: a distribution eps-close to uniform
     changes any bounded performance metric by at most eps/2 of its
     range (the expectation bound quoted in the paper's introduction). *)
  Printf.printf
    "any distribution within l1 %.3f of uniform shifts a bounded metric by <= %.3f of its range\n"
    eps (eps /. 2.)
