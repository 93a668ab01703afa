type t = {
  n : int;
  eps : float;
  k : int;
  q : int;
  crash_prob : float;
  null_reject_rate : float;  (* per-player, estimated in calibration *)
}

(* One round: per-player crash coin, live players vote with the midpoint
   cutoff; returns (live, rejects). *)
let round ~n ~eps ~k ~q ~crash_prob rng source =
  Dut_protocol.Network.round_fold ~rng ~source ~k ~q
    ~messenger:(fun ~index:_ coins samples ->
      if Dut_prng.Rng.bernoulli coins crash_prob then None
      else Some (Local_stat.vote_midpoint ~n ~q ~eps samples))
    ~init:(0, 0)
    ~f:(fun ((live, rejects) as acc) -> function
      | None -> acc
      | Some vote -> (live + 1, if vote then rejects else rejects + 1))

let make ~n ~eps ~k ~q ~crash_prob ~calibration_trials ~rng =
  if n <= 0 || k <= 0 || q < 0 then invalid_arg "Crash_tester.make: bad sizes";
  if eps <= 0. || eps >= 1. then invalid_arg "Crash_tester.make: eps out of (0,1)";
  if crash_prob < 0. || crash_prob >= 1. then
    invalid_arg "Crash_tester.make: crash probability out of [0,1)";
  if calibration_trials <= 0 then invalid_arg "Crash_tester.make: trials <= 0";
  (* Calibration estimates the per-player null reject rate directly
     (crashes don't change a live player's vote distribution); the
     referee then uses a live-count-adapted binomial cutoff, avoiding
     the granularity traps of a fixed fraction. *)
  let votes = calibration_trials * 8 in
  let rejects =
    Local_stat.null_midpoint_rejects ~n ~q ~eps ~voters:votes
      (Dut_prng.Rng.split rng)
  in
  let rate = float_of_int rejects /. float_of_int votes in
  (* Clamp away from the endpoints so binomial cutoffs stay sane. *)
  let rate = Float.max 0.01 (Float.min 0.95 rate) in
  { n; eps; k; q; crash_prob; null_reject_rate = rate }

let reject_cutoff t ~live =
  (* Smallest count whose null probability (under Bin(live, rate)) is at
     most 0.2. *)
  let rec go c =
    if c > live then live + 1
    else if Dut_stats.Tail.binomial_sf ~k:live ~p:t.null_reject_rate c <= 0.2
    then c
    else go (c + 1)
  in
  go 0

let accepts t rng source =
  let live, rejects =
    round ~n:t.n ~eps:t.eps ~k:t.k ~q:t.q ~crash_prob:t.crash_prob rng source
  in
  if live = 0 then false else rejects < reject_cutoff t ~live

let tester ~n ~eps ~k ~q ~crash_prob ~calibration_trials ~rng =
  accepts (make ~n ~eps ~k ~q ~crash_prob ~calibration_trials ~rng)
