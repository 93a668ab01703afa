(* Quickstart: test whether samples look uniform, centrally and then
   with a distributed network of players.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  let rng = Dut_prng.Rng.create 42 in

  (* A universe of n = 256 elements and a proximity parameter eps. *)
  let ell = 7 in
  let n = 1 lsl (ell + 1) in
  let eps = 0.3 in

  (* Two unknown distributions: the uniform one, and a hard instance
     that is exactly eps-far from uniform (Paninski family, Section 3 of
     the paper). *)
  let far = Dut_dist.Paninski.random ~ell ~eps rng in
  Printf.printf "universe n = %d, eps = %.2f\n" n eps;
  Printf.printf "l1 distance of the hard instance from uniform: %.3f\n\n"
    (Dut_dist.Distance.distance_to_uniformity (Dut_dist.Paninski.pmf far));

  (* 1. Centralized testing: one tester draws all the samples. *)
  let m = Dut_testers.Collision.recommended_samples ~n ~eps in
  let uniform_samples = Array.init m (fun _ -> Dut_prng.Rng.int rng n) in
  let far_samples = Dut_dist.Paninski.draw_many far rng m in
  Printf.printf "centralized collision tester, m = %d samples:\n" m;
  Printf.printf "  on uniform input: %s\n"
    (if Dut_testers.Collision.test ~n ~eps uniform_samples then "accept" else "reject");
  Printf.printf "  on eps-far input: %s\n\n"
    (if Dut_testers.Collision.test ~n ~eps far_samples then "accept" else "reject");

  (* 2. Distributed testing: k players, each drawing far fewer samples,
     one bit each to the referee (majority-calibrated rule — the
     sample-optimal tester matching Theorem 1.1). *)
  let k = 32 in
  let q = 4 * int_of_float (Dut_core.Bounds.fmo_threshold_upper ~n ~k ~eps) in
  Printf.printf "distributed tester: k = %d players x q = %d samples\n" k q;
  Printf.printf "  (vs %d samples for the centralized tester)\n" m;
  let tester =
    Dut_core.Comparison_graph.tester_majority ~n ~eps ~k ~q
      ~calibration_trials:300 ~rng:(Dut_prng.Rng.split rng) Clique
  in
  let verdict source =
    if tester (Dut_prng.Rng.split rng) source then "accept" else "reject"
  in
  Printf.printf "  on uniform input: %s\n"
    (verdict (Dut_protocol.Network.uniform_source ~n));
  Printf.printf "  on eps-far input: %s\n\n"
    (verdict (Dut_protocol.Network.of_paninski far));

  (* 3. The theory behind the numbers (constants set to 1). *)
  Printf.printf "best-rule tester needs  ~sqrt(n/k)/eps^2   = %.0f samples/player\n"
    (Dut_core.Bounds.fmo_threshold_upper ~n ~k ~eps);
  Printf.printf "AND-rule tester needs   ~sqrt(n)/(k^(e^2) eps^2) = %.0f samples/player\n"
    (Dut_core.Bounds.fmo_and_upper ~n ~k ~eps);
  Printf.printf "-> insisting on a local (AND) decision costs a factor ~%.1f here,\n"
    (Dut_core.Bounds.fmo_and_upper ~n ~k ~eps
    /. Dut_core.Bounds.fmo_threshold_upper ~n ~k ~eps);
  Printf.printf "   and the gap grows with k (Theorems 1.1 and 1.2)\n"
