let push_sum ~graph ~rng ~values ~rounds =
  let k = Graph.n graph in
  if Array.length values <> k then
    invalid_arg "Gossip.push_sum: one value per node required";
  if rounds < 0 then invalid_arg "Gossip.push_sum: negative rounds";
  let value = Array.copy values in
  let weight = Array.make k 1. in
  let coins = Dut_prng.Rng.split_n rng k in
  let next_value = Array.make k 0. and next_weight = Array.make k 0. in
  for _ = 1 to rounds do
    Array.fill next_value 0 k 0.;
    Array.fill next_weight 0 k 0.;
    for v = 0 to k - 1 do
      let half_value = value.(v) /. 2. and half_weight = weight.(v) /. 2. in
      (* Keep half, push half to a uniformly random neighbor (or keep
         everything on an isolated node). *)
      next_value.(v) <- next_value.(v) +. half_value;
      next_weight.(v) <- next_weight.(v) +. half_weight;
      match Graph.neighbors graph v with
      | [] ->
          next_value.(v) <- next_value.(v) +. half_value;
          next_weight.(v) <- next_weight.(v) +. half_weight
      | neighbors ->
          let target =
            List.nth neighbors (Dut_prng.Rng.int coins.(v) (List.length neighbors))
          in
          next_value.(target) <- next_value.(target) +. half_value;
          next_weight.(target) <- next_weight.(target) +. half_weight
    done;
    Array.blit next_value 0 value 0 k;
    Array.blit next_weight 0 weight 0 k
  done;
  Array.init k (fun v -> if weight.(v) > 0. then value.(v) /. weight.(v) else 0.)

let rounds_to_tolerance ~graph ~rng ~values ~tol ~max_rounds =
  let k = Graph.n graph in
  let truth = Array.fold_left ( +. ) 0. values /. float_of_int k in
  let rec search rounds =
    if rounds > max_rounds then None
    else begin
      let estimates = push_sum ~graph ~rng:(Dut_prng.Rng.split rng) ~values ~rounds in
      if Array.for_all (fun e -> Float.abs (e -. truth) <= tol) estimates then
        Some rounds
      else search (rounds + max 1 (rounds / 4))
    end
  in
  search 1

let decentralized_tester ~graph ~n ~eps ~q ~gossip_rounds ~calibration_trials ~rng
    =
  if calibration_trials <= 0 then
    invalid_arg "Gossip.decentralized_tester: trials <= 0";
  let k = Graph.n graph in
  (* Same calibrated cutoff as the tree-based tester, expressed as a
     fraction so each node can compare its local average estimate. *)
  let cutoff_count =
    Dut_protocol.Calibrate.reject_count_cutoff ~trials:calibration_trials
      (Dut_prng.Rng.split rng)
      ~rejects:(Dut_core.Local_stat.null_midpoint_rejects ~n ~q ~eps ~voters:k)
      ~level:0.2
  in
  (* Compare strictly-below against the midpoint of cutoff-1 and cutoff,
     so gossip estimates straddling the integer cutoff break the right
     way. *)
  let cutoff_fraction =
    (float_of_int cutoff_count -. 0.5) /. float_of_int k
  in
  fun rng source ->
    let votes = Array.make k 0. in
    let (_ : int) =
      Dut_protocol.Network.round_fold ~rng ~source ~k ~q
        ~messenger:(fun ~index:_ _coins samples ->
          if Dut_core.Local_stat.vote_midpoint ~n ~q ~eps samples then 0.
          else 1.)
        ~init:0
        ~f:(fun i vote ->
          votes.(i) <- vote;
          i + 1)
    in
    let estimates =
      push_sum ~graph ~rng:(Dut_prng.Rng.split rng) ~values:votes
        ~rounds:gossip_rounds
    in
    let accepts =
      Array.fold_left
        (fun acc e -> if e < cutoff_fraction then acc + 1 else acc)
        0 estimates
    in
    2 * accepts > k
