(** Crash-tolerant distributed uniformity testing.

    Real fleets lose nodes. Here each player independently crashes
    (sends nothing) with probability φ before voting; the referee sees
    only the live votes. Because crashes are {e visible} — a missing
    message is observable in the simultaneous model — the referee can
    adapt: calibration estimates the per-player null reject rate (a
    live player's vote distribution doesn't depend on φ), and the
    referee applies a binomial-tail cutoff at whatever live count the
    round delivered. Power degrades as if k were (1−φ)k, and no
    further: the T18-crash experiment confirms the graceful
    degradation. A round in which every player crashed is rejected
    (fail-safe). *)

type t

val make :
  n:int ->
  eps:float ->
  k:int ->
  q:int ->
  crash_prob:float ->
  calibration_trials:int ->
  rng:Dut_prng.Rng.t ->
  t
(** @raise Invalid_argument on bad sizes, eps outside (0,1), crash
    probability outside [0,1), or non-positive trials. *)

val reject_cutoff : t -> live:int -> int
(** The reject-count cutoff applied when [live] players answered: the
    smallest count with null binomial tail ≤ 0.2. *)

val accepts : t -> Dut_prng.Rng.t -> Dut_protocol.Network.source -> bool

val tester :
  n:int ->
  eps:float ->
  k:int ->
  q:int ->
  crash_prob:float ->
  calibration_trials:int ->
  rng:Dut_prng.Rng.t ->
  Evaluate.tester
