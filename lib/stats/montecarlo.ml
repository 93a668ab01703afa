(* Trials actually executed, tallied on the shared metric vocabulary
   (`mc.trials_used` in Dut_obs) so the allocation-budget test, the
   manifest and the --metrics dump all read one number. One counter add per
   *estimate* (not per trial): negligible overhead, and still exact
   because every estimator knows how many trials it ran. Adaptivity
   makes trials_used jobs-invariant (stopping depends only on counts at
   fixed chunk boundaries), so the summed total is bit-equal for every
   jobs count. *)
let m_trials_used = Dut_obs.Metrics.counter "mc.trials_used"

let m_early_stops = Dut_obs.Metrics.counter "mc.adaptive_early_stops"

let note_trials n = Dut_obs.Metrics.add m_trials_used n

let estimate_prob ?jobs ~trials rng event =
  if trials <= 0 then invalid_arg "Montecarlo.estimate_prob: trials <= 0";
  let successes =
    Dut_engine.Parallel.count ?jobs ~rng ~n:trials (fun r _ -> event r)
  in
  note_trials trials;
  Binomial_ci.wilson95 ~successes ~trials

type adaptive = { ci : Binomial_ci.t; trials_used : int }

(* 16 is the smallest batch whose Wilson interval can decide the
   harness's default 0.72 level in one chunk on both sides (16/16 has
   lower bound 0.806, 0/16 has upper bound 0.194), so an off-boundary
   probe costs one batch. Stricter levels just take another batch. *)
let default_chunk = 16

let estimate_prob_adaptive ?jobs ?(chunk = default_chunk) ~max_trials ~target
    rng event =
  if max_trials <= 0 then
    invalid_arg "Montecarlo.estimate_prob_adaptive: max_trials <= 0";
  if chunk <= 0 then invalid_arg "Montecarlo.estimate_prob_adaptive: chunk <= 0";
  if target < 0. || target > 1. then
    invalid_arg "Montecarlo.estimate_prob_adaptive: target out of [0,1]";
  (* Chunked sequential stopping: batches of [chunk] trials, halting as
     soon as the Wilson 95% interval is decisively on one side of
     [target]. Chunk boundaries and the stopping decision depend only
     on accumulated counts, and each batch pre-splits its child streams
     in index order, so the result is bit-identical for every [jobs]
     count — the engine contract survives adaptivity. *)
  let successes = ref 0 in
  let used = ref 0 in
  let rec go () =
    let batch = min chunk (max_trials - !used) in
    successes :=
      !successes
      + Dut_engine.Parallel.count ?jobs ~rng ~n:batch (fun r _ -> event r);
    used := !used + batch;
    let ci = Binomial_ci.wilson95 ~successes:!successes ~trials:!used in
    if !used >= max_trials || ci.lower > target || ci.upper < target then ci
    else go ()
  in
  let ci = go () in
  note_trials !used;
  if !used < max_trials then Dut_obs.Metrics.incr m_early_stops;
  { ci; trials_used = !used }

let estimate_mean ?jobs ~trials rng f =
  if trials <= 0 then invalid_arg "Montecarlo.estimate_mean: trials <= 0";
  note_trials trials;
  Summary.of_array (Dut_engine.Parallel.init ?jobs ~rng ~n:trials (fun r _ -> f r))
