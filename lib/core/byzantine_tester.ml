type adversary = Push_accept | Push_reject | Smart

type t = {
  n : int;
  eps : float;
  k : int;
  q : int;
  byzantine : int;
  honest_cutoff : int;  (* reject-count cutoff for the honest votes alone *)
}

let make ~n ~eps ~k ~q ~byzantine ~calibration_trials ~rng =
  if n <= 0 || k <= 0 || q < 0 then invalid_arg "Byzantine_tester.make: bad sizes";
  if eps <= 0. || eps >= 1. then
    invalid_arg "Byzantine_tester.make: eps out of (0,1)";
  if byzantine < 0 || 2 * byzantine >= k then
    invalid_arg "Byzantine_tester.make: byzantine outside [0, k/2)";
  if calibration_trials <= 0 then invalid_arg "Byzantine_tester.make: trials <= 0";
  let honest_cutoff =
    Dut_protocol.Calibrate.reject_count_cutoff ~trials:calibration_trials
      (Dut_prng.Rng.split rng)
      ~rejects:(Local_stat.null_midpoint_rejects ~n ~q ~eps ~voters:(k - byzantine))
      ~level:0.15
  in
  { n; eps; k; q; byzantine; honest_cutoff }

let accepts t ~adversary ~truth_is_far rng source =
  let rejects =
    Dut_protocol.Network.round_fold ~rng ~source ~k:(t.k - t.byzantine) ~q:t.q
      ~messenger:(fun ~index:_ _coins samples ->
        Local_stat.vote_midpoint ~n:t.n ~q:t.q ~eps:t.eps samples)
      ~init:0
      ~f:(fun rejects accept -> if accept then rejects else rejects + 1)
  in
  let liar_rejects =
    match adversary with
    | Push_accept -> 0
    | Push_reject -> t.byzantine
    | Smart -> if truth_is_far then 0 else t.byzantine
  in
  (* Hardened rule: the referee widens its acceptance band by b, the
     most the liars could have inflated the count. *)
  rejects + liar_rejects < t.honest_cutoff + t.byzantine

let tester ~n ~eps ~k ~q ~byzantine ~adversary ~calibration_trials ~rng ~far_flag
    =
  let t = make ~n ~eps ~k ~q ~byzantine ~calibration_trials ~rng in
  accepts t ~adversary ~truth_is_far:far_flag

let tolerated_faults ~n ~eps ~k ~q =
  let mu0 = Local_stat.null_mean ~n ~q in
  let mu1 = Local_stat.far_mean ~n ~q ~eps in
  let cut = Local_stat.midpoint_cutoff ~n ~q ~eps in
  let p_of mu =
    if mu <= 0. then 0.
    else Dut_stats.Tail.normal_sf ((cut -. mu) /. sqrt mu)
  in
  float_of_int k *. (p_of mu1 -. p_of mu0) /. 2.
