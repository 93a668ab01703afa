type tester = Dut_prng.Rng.t -> Dut_protocol.Network.source -> bool

type power = {
  uniform_accept : Dut_stats.Binomial_ci.t;
  far_reject : Dut_stats.Binomial_ci.t;
}

let uniform_event ~n tester trial_rng =
  tester trial_rng (Dut_protocol.Network.uniform_source ~n)

let far_event ~ell ~eps tester trial_rng =
  (* A fresh perturbation per trial (the mixture adversary), built in a
     per-domain scratch buffer: same draws as [Paninski.random], no
     per-trial allocation. *)
  let hard = Dut_dist.Paninski.random_scratch ~ell ~eps trial_rng in
  not (tester trial_rng (Dut_protocol.Network.of_paninski hard))

let measure ~trials ~rng ~ell ~eps tester =
  let n = 1 lsl (ell + 1) in
  let uniform_accept =
    Dut_stats.Montecarlo.estimate_prob ~trials rng (uniform_event ~n tester)
  in
  let far_reject =
    Dut_stats.Montecarlo.estimate_prob ~trials rng (far_event ~ell ~eps tester)
  in
  { uniform_accept; far_reject }

let succeeds ?(adaptive = false) ~trials ~level ~rng ~ell ~eps tester =
  if adaptive then begin
    (* Adaptive sequential stopping: each side halts as soon as its
       Wilson interval is decisively on one side of [level] (capped at
       [trials]), and a decisively failing uniform side short-circuits
       the far side entirely. The verdict criterion is unchanged —
       point estimate >= level on both sides — only the trial spend
       adapts. *)
    let n = 1 lsl (ell + 1) in
    let accept =
      Dut_stats.Montecarlo.estimate_prob_adaptive ~max_trials:trials
        ~target:level rng (uniform_event ~n tester)
    in
    accept.ci.estimate >= level
    &&
    let reject =
      Dut_stats.Montecarlo.estimate_prob_adaptive ~max_trials:trials
        ~target:level rng (far_event ~ell ~eps tester)
    in
    reject.ci.estimate >= level
  end
  else begin
    let p = measure ~trials ~rng ~ell ~eps tester in
    p.uniform_accept.estimate >= level && p.far_reject.estimate >= level
  end

let critical_q ?adaptive ~trials ~level ~rng ~ell ~eps ?(lo = 1)
    ?(hi = 1 lsl 20) ?guess make =
  let ok q =
    let probe_rng = Dut_prng.Rng.split rng in
    succeeds ?adaptive ~trials ~level ~rng:probe_rng ~ell ~eps (make q)
  in
  match guess with
  | Some guess -> Dut_stats.Critical.search_seeded ~lo ~hi ~guess ok
  | None -> Dut_stats.Critical.search ~lo ~hi ok
