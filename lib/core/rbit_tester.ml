type t = {
  n : int;
  k : int;
  q : int;
  levels : int;
  null_mean : float;
  null_std : float;
  referee_cutoff : float;
}

let quantize_raw ~levels ~null_mean ~null_std count =
  (* Map z-scores in [-2, 2] linearly onto the bucket range. *)
  let z =
    if null_std > 0. then (float_of_int count -. null_mean) /. null_std else 0.
  in
  let unit = (z +. 2.) /. 4. in
  let idx = int_of_float (floor (unit *. float_of_int levels)) in
  if idx < 0 then 0 else if idx >= levels then levels - 1 else idx

let sum_round t rng source =
  let messenger ~index:_ _coins samples =
    quantize_raw ~levels:t.levels ~null_mean:t.null_mean ~null_std:t.null_std
      (Local_stat.collisions_bounded ~n:t.n samples)
  in
  Dut_protocol.Network.round_fold ~rng ~source ~k:t.k ~q:t.q ~messenger ~init:0
    ~f:( + )

let make ~n ~eps ~k ~q ~bits ~calibration_trials ~rng =
  if n <= 0 || k <= 0 || q < 0 then invalid_arg "Rbit_tester.make: bad sizes";
  if eps <= 0. || eps >= 1. then invalid_arg "Rbit_tester.make: eps out of (0,1)";
  if bits < 1 || bits > 16 then invalid_arg "Rbit_tester.make: bits outside [1,16]";
  if calibration_trials <= 0 then invalid_arg "Rbit_tester.make: trials <= 0";
  let null_mean = Local_stat.null_mean ~n ~q in
  let null_std = sqrt null_mean in
  let proto =
    { n; k; q; levels = 1 lsl bits; null_mean; null_std; referee_cutoff = 0. }
  in
  let calibration_rng = Dut_prng.Rng.split rng in
  let cutoff =
    Dut_protocol.Calibrate.null_quantile ~trials:calibration_trials
      calibration_rng
      ~stat:(fun r ->
        float_of_int
          (sum_round proto r (Dut_protocol.Network.uniform_source ~n)))
      ~p:0.8
  in
  { proto with referee_cutoff = cutoff +. 0.5 }

let quantize t count =
  quantize_raw ~levels:t.levels ~null_mean:t.null_mean ~null_std:t.null_std count

let accepts t rng source = float_of_int (sum_round t rng source) < t.referee_cutoff

let tester ~n ~eps ~k ~q ~bits ~calibration_trials ~rng =
  accepts (make ~n ~eps ~k ~q ~bits ~calibration_trials ~rng)
