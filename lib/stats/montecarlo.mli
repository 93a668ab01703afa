(** Monte-Carlo estimation of event probabilities.

    All estimators run their trials through {!Dut_engine.Parallel}:
    child RNG streams are pre-split per trial in index order, so the
    result is bit-identical for every [jobs] count (and identical to the
    historical sequential loop). [jobs] defaults to the ambient value
    set by {!Dut_engine.Parallel.set_default_jobs}, initially
    [DUT_JOBS] or 1. *)

val estimate_prob :
  ?jobs:int ->
  trials:int ->
  Dut_prng.Rng.t ->
  (Dut_prng.Rng.t -> bool) ->
  Binomial_ci.t
(** [estimate_prob ~trials rng event] runs [event] on [trials]
    independent child streams of [rng] (up to [jobs] at a time) and
    returns the Wilson 95% interval of the success probability. [event]
    must draw randomness only from the stream it is handed.

    @raise Invalid_argument if [trials <= 0]. *)

type adaptive = { ci : Binomial_ci.t; trials_used : int }
(** Result of an adaptive estimate: the Wilson interval at the stopping
    point and how many trials were actually spent. *)

val estimate_prob_adaptive :
  ?jobs:int ->
  ?chunk:int ->
  max_trials:int ->
  target:float ->
  Dut_prng.Rng.t ->
  (Dut_prng.Rng.t -> bool) ->
  adaptive
(** [estimate_prob_adaptive ~max_trials ~target rng event] estimates
    the same probability as {!estimate_prob} but spends trials in
    batches of [chunk] (default 16 — the smallest batch that can
    decide the harness's default 0.72 level in one chunk on either
    side) and {e stops early} as soon as the
    running Wilson 95% interval lies decisively above or below
    [target] (interval lower bound > target, or upper bound < target),
    with a hard cap of [max_trials]. Far from the decision boundary
    one batch settles the verdict, so a probe costs O(chunk) instead
    of the full budget; near the boundary the full budget is spent,
    exactly as the fixed estimator would.

    The Wilson interval always contains the point estimate, so a
    decisive stop and the point-estimate comparison
    [ci.estimate >= target] agree by construction. Because the
    interval is monitored after every batch the 95% coverage is
    nominal, not exact — the harness treats [target] as a verdict
    threshold, not an inference boundary.

    Stopping depends only on accumulated counts at fixed chunk
    boundaries and every batch pre-splits its streams in index order,
    so the result — estimate {e and} trials_used — is bit-identical
    for every [jobs] count.

    @raise Invalid_argument if [max_trials <= 0], [chunk <= 0], or
    [target] is outside [0,1]. *)

val estimate_mean :
  ?jobs:int ->
  trials:int ->
  Dut_prng.Rng.t ->
  (Dut_prng.Rng.t -> float) ->
  Summary.t
(** Summary of [trials] evaluations of a random quantity, parallelised
    like {!estimate_prob}. *)

(** {2 Trial accounting}

    Every estimator above tallies the trials it actually executed onto
    the {!Dut_obs.Metrics} counter [mc.trials_used] — the natural
    "work" unit that adaptive stopping optimises — and each decisive
    early stop onto [mc.adaptive_early_stops]. Both totals are
    jobs-invariant (stopping depends only on accumulated counts at
    fixed chunk boundaries). Read them with
    [Dut_obs.Metrics.value "mc.trials_used"] or a snapshot delta; the
    allocation-budget test and the run manifest do exactly that, so every
    surface shares one metric vocabulary (see [doc/observability.md]). *)
