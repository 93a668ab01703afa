(* "Can distributed uniformity testing be local?" — the paper's title
   question, answered empirically in one run.

   For a fixed network we measure the empirical critical sample count of
   the same player logic under three referees of decreasing locality:
   the AND rule (fully local: any node's alarm decides), a small
   reject-threshold, and the calibrated count rule (fully global). The
   answer: locality costs samples, exactly as Theorems 1.1-1.3 predict.

   Run with:  dune exec examples/locality_cost.exe   (takes ~a minute) *)

let () =
  let rng = Dut_prng.Rng.create 5 in
  let ell = 7 in
  let n = 1 lsl (ell + 1) in
  let eps = 0.3 in
  let k = 32 in
  let trials = 100 in
  let level = 0.72 in
  let hi = 64 * int_of_float (Dut_core.Bounds.centralized ~n ~eps) in

  Printf.printf "n = %d, eps = %.2f, k = %d players\n" n eps k;
  Printf.printf "centralized baseline: ~%.0f samples (Paninski)\n\n"
    (Dut_core.Bounds.centralized ~n ~eps);

  let critical name make =
    match
      Dut_core.Evaluate.critical_q ~trials ~level ~rng:(Dut_prng.Rng.split rng)
        ~ell ~eps ~hi make
    with
    | Some q -> Printf.printf "%-34s q* = %4d samples/player\n%!" name q
    | None -> Printf.printf "%-34s q* not found below %d\n%!" name hi
  in

  critical "AND rule (local decision)" (fun q ->
      Dut_core.Comparison_graph.tester_fixed ~n ~eps ~k ~q ~t:1 Clique);
  critical "reject-threshold T=4" (fun q ->
      Dut_core.Comparison_graph.tester_fixed ~n ~eps ~k ~q ~t:4 Clique);
  critical "calibrated count (global)" (fun q ->
      Dut_core.Comparison_graph.tester_majority ~n ~eps ~k ~q
        ~calibration_trials:250 ~rng:(Dut_prng.Rng.split rng) Clique);

  Printf.printf "\nso: no, it cannot be local for free — the AND rule pays\n";
  Printf.printf "roughly the centralized cost, while the global rule gets the\n";
  Printf.printf "full sqrt(k) parallel speedup (Theorems 1.1 and 1.2)\n"
