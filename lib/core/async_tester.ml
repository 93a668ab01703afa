type t = {
  n : int;
  eps : float;
  qs : int array;
  referee_cutoff : int;
}

let counts_of ~rates ~tau =
  Array.map (fun r -> max 1 (int_of_float (ceil (r *. tau)))) rates

let reject_count t rng source =
  let player ~index (_coins : Dut_prng.Rng.t) samples =
    Local_stat.vote_midpoint ~n:t.n ~q:t.qs.(index) ~eps:t.eps samples
  in
  Dut_protocol.Network.round_rates ~rng ~source ~qs:t.qs ~messenger:player
    ~init:0
    ~f:(fun rejects accept -> if accept then rejects else rejects + 1)

let make ~n ~eps ~rates ~tau ~calibration_trials ~rng =
  if n <= 0 then invalid_arg "Async_tester.make: bad n";
  if Array.length rates = 0 then invalid_arg "Async_tester.make: no players";
  Array.iter (fun r -> if r <= 0. then invalid_arg "Async_tester.make: rate <= 0") rates;
  if tau <= 0. then invalid_arg "Async_tester.make: tau <= 0";
  if eps <= 0. || eps >= 1. then invalid_arg "Async_tester.make: eps out of (0,1)";
  if calibration_trials <= 0 then invalid_arg "Async_tester.make: trials <= 0";
  let qs = counts_of ~rates ~tau in
  let proto = { n; eps; qs; referee_cutoff = max_int } in
  let calibration_rng = Dut_prng.Rng.split rng in
  let cutoff =
    Dut_protocol.Calibrate.reject_count_cutoff ~trials:calibration_trials
      calibration_rng
      ~rejects:(fun r ->
        reject_count proto r (Dut_protocol.Network.uniform_source ~n))
      ~level:0.2
  in
  { proto with referee_cutoff = cutoff }

let sample_counts t = Array.copy t.qs

let accepts t rng source = reject_count t rng source < t.referee_cutoff

let tester ~n ~eps ~rates ~tau ~calibration_trials ~rng =
  accepts (make ~n ~eps ~rates ~tau ~calibration_trials ~rng)

let critical_tau ~trials ~level ~rng ~ell ~eps ~rates ~calibration_trials
    ?(hi = 1 lsl 20) () =
  let n = 1 lsl (ell + 1) in
  Dut_stats.Critical.search ~lo:1 ~hi (fun tau ->
      let probe_rng = Dut_prng.Rng.split rng in
      let build_rng = Dut_prng.Rng.split probe_rng in
      Evaluate.succeeds ~trials ~level ~rng:probe_rng ~ell ~eps
        (tester ~n ~eps ~rates ~tau:(float_of_int tau) ~calibration_trials
           ~rng:build_rng))
