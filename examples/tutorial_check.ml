(* Compiles (and quickly runs) every code snippet of doc/tutorial.md, so
   the tutorial cannot drift from the API.

   Run with:  dune exec examples/tutorial_check.exe *)

let () =
  (* §1 Distributions and samples *)
  let rng = Dut_prng.Rng.create 42 in
  let n = 256 in
  let uniform = Dut_dist.Pmf.uniform n in
  let zipf = Dut_dist.Families.zipf ~n ~s:1.0 in
  let sampler = Dut_dist.Sampler.of_pmf zipf in
  let samples = Dut_dist.Sampler.draw_many sampler rng 1000 in
  let hard = Dut_dist.Paninski.random ~ell:7 ~eps:0.3 rng in
  let (_ : int array) = Dut_dist.Paninski.draw_many hard rng 1000 in
  ignore uniform;

  (* §2 A centralized test *)
  let m = Dut_testers.Collision.recommended_samples ~n ~eps:0.3 in
  let verdict = Dut_testers.Collision.test ~n ~eps:0.3 samples in
  assert (not verdict);
  ignore m;

  (* §3 A distributed protocol *)
  let player ~index:_ _coins samples =
    Dut_core.Local_stat.vote_midpoint ~n ~q:64 ~eps:0.3 samples
  in
  let (_ : bool) =
    Dut_protocol.Network.round_accept ~rng
      ~source:(Dut_protocol.Network.of_paninski hard)
      ~k:32 ~q:64 ~player ~rule:Dut_protocol.Rule.Majority
  in
  let tester =
    Dut_core.Comparison_graph.tester_majority ~n ~eps:0.3 ~k:32 ~q:64
      ~calibration_trials:300 ~rng:(Dut_prng.Rng.split rng) Clique
  in
  let (_ : bool) =
    tester (Dut_prng.Rng.split rng) (Dut_protocol.Network.uniform_source ~n)
  in

  (* §4 Measuring sample complexity (tiny budget here) *)
  let q_star =
    Dut_core.Evaluate.critical_q ~trials:30 ~level:0.7 ~rng ~ell:7 ~eps:0.3
      ~hi:4000 (fun q ->
        Dut_core.Comparison_graph.tester_majority ~n ~eps:0.3 ~k:32 ~q
          ~calibration_trials:60 ~rng:(Dut_prng.Rng.split rng) Clique)
  in
  let predicted = Dut_core.Bounds.thm11_lower ~n ~k:32 ~eps:0.3 in
  (match q_star with
  | Some q -> Printf.printf "q* ~ %d (theory scale %.0f)\n" q predicted
  | None -> print_endline "q* not found at this tiny budget");

  (* §5 Verifying the theory *)
  let g = Dut_core.Exact.collision_acceptor ~ell:2 ~q:3 ~cutoff:1 in
  let d = Dut_dist.Paninski.random ~ell:2 ~eps:0.4 rng in
  let direct = Dut_core.Exact.nu g d -. Dut_core.Exact.mu g in
  let fourier = Dut_core.Exact.diff_fourier g d in
  assert (Float.abs (direct -. fourier) < 1e-12);
  let ratio = Dut_core.Exact.lemma51_ratio g ~eps:0.4 in
  assert (ratio <= 1.);
  print_endline "tutorial snippets all hold"
