(* Sensor network scenario (the paper's introduction): sensors measure
   their environment and the network must raise an alarm when the
   measurement distribution deviates from its normal (uniform) profile.

   Two deployments are compared on the same measurements:

   - the LOCAL deployment uses the AND decision rule — any single sensor
     can raise the alarm, no vote collection needed (cheap to build,
     expensive in samples: Theorem 1.2);
   - the VOTING deployment collects one bit per sensor and applies a
     calibrated count cutoff (needs a collection round, but is
     sample-optimal: Theorem 1.1).

   We sweep the per-sensor sample budget and print each deployment's
   detection and false-alarm rates, showing the budget window where only
   the voting network works.

   Run with:  dune exec examples/sensor_network.exe *)

let () =
  let rng = Dut_prng.Rng.create 7 in
  let ell = 7 in
  let n = 1 lsl (ell + 1) in
  let eps = 0.3 in
  let k = 64 in
  let trials = 150 in

  Printf.printf
    "sensor network: %d sensors, readings over %d bins, drift threshold eps=%.2f\n\n"
    k n eps;
  Printf.printf "%-10s %-26s %-26s\n" "" "LOCAL (AND rule)" "VOTING (calibrated count)";
  Printf.printf "%-10s %-13s %-13s %-13s %-13s\n" "q/sensor" "false-alarm"
    "detection" "false-alarm" "detection";

  List.iter
    (fun q ->
      let and_tester =
        Dut_core.Comparison_graph.tester_fixed ~n ~eps ~k ~q ~t:1 Clique
      in
      let vote_tester =
        Dut_core.Comparison_graph.tester_majority ~n ~eps ~k ~q
          ~calibration_trials:300 ~rng:(Dut_prng.Rng.split rng) Clique
      in
      let rates tester =
        let p =
          Dut_core.Evaluate.measure ~trials ~rng:(Dut_prng.Rng.split rng) ~ell
            ~eps tester
        in
        ( 1. -. p.Dut_core.Evaluate.uniform_accept.estimate,
          p.Dut_core.Evaluate.far_reject.estimate )
      in
      let and_fa, and_det = rates and_tester in
      let vote_fa, vote_det = rates vote_tester in
      Printf.printf "%-10d %-13.2f %-13.2f %-13.2f %-13.2f%s\n" q and_fa and_det
        vote_fa vote_det
        (if vote_det >= 2. /. 3. && and_det < 2. /. 3. then
           "   <- voting works, local alarm does not"
         else ""))
    [ 8; 16; 32; 64; 128; 256; 512 ];

  Printf.printf
    "\ntheory (tester upper bounds): voting ~%.0f samples/sensor, local ~%.0f\n"
    (Dut_core.Bounds.fmo_threshold_upper ~n ~k ~eps)
    (Dut_core.Bounds.fmo_and_upper ~n ~k ~eps);
  print_endline "(constants differ; the ordering and the gap are the point)"
