(** Run configuration shared by every experiment.

    Two parameter profiles: [Fast] keeps each experiment to seconds (used
    by the tests, the benchmark of record and CI); [Full] runs the sizes
    quoted in EXPERIMENTS.md. Everything is derived deterministically
    from the seed — [jobs] affects only wall-clock time, never a result
    bit (see {!Dut_engine.Parallel}). *)

type profile = Fast | Full

type t = {
  profile : profile;
  seed : int;
  trials : int;  (** Monte-Carlo rounds per probability estimate *)
  level : float;  (** success level demanded of both error sides *)
  calibration_trials : int;  (** uniform rounds for referee calibration *)
  jobs : int;
      (** domains used by the execution engine — the {e effective}
          value, after the {!Dut_engine.Pool.effective_jobs} clamp *)
  jobs_requested : int;
      (** the pre-clamp request ([--jobs]/[DUT_JOBS]); differs from
          [jobs] only when the host clamped it. Recorded in the run
          manifest so telemetry never overstates parallelism. *)
  adaptive : bool;
      (** stop Monte-Carlo probes early once the Wilson interval is
          decisive (see {!Dut_stats.Montecarlo.estimate_prob_adaptive}) *)
  warm_start : bool;
      (** seed each grid point's critical search from the previous
          point's q* scaled by the theory exponent *)
}

val make :
  ?seed:int ->
  ?trials:int ->
  ?jobs:int ->
  ?adaptive:bool ->
  ?warm_start:bool ->
  profile ->
  t
(** Defaults: seed 2019 (the paper's year), trials 120/240, level 0.72,
    calibration 200/400 for Fast/Full, [adaptive] and [warm_start] both
    on. [trials] overrides the profile's Monte-Carlo budget (it caps the
    adaptive spend); [jobs] defaults to the [DUT_JOBS] environment
    variable, else 1, and is clamped to the host's recommended domain
    count ({!Dut_engine.Pool.effective_jobs}) — oversubscribing domains
    only adds scheduling overhead, never speed.

    Turning [adaptive]/[warm_start] off reproduces the fixed-budget,
    cold-searched runs of earlier revisions bit for bit.

    @raise Invalid_argument if [trials] or [jobs] is non-positive. *)

val rng : t -> Dut_prng.Rng.t
(** A fresh root stream for this configuration. *)

val is_fast : t -> bool

val profile_of_string : string -> profile option
val profile_to_string : profile -> string
