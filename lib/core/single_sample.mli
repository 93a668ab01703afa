(** The single-sample, ℓ-bit protocol of Acharya–Canonne–Tyagi (the
    paper's [1]).

    Each of k players holds exactly one sample and sends ℓ bits: the
    block index of its sample under a public {e balanced} random
    partition of [n] into 2^ℓ equal blocks (public coins drawn by the
    referee each round). Balance matters: under U_n the induced block
    distribution is exactly uniform, so the partition contributes no null
    variance, while a random partition preserves the ε-far instance's
    ℓ2 deviation in expectation (the bucketed collision probability is
    1/2^ℓ + ε²/n on average). Because a single partition's signal is a
    low-degree-of-freedom chi-square that can land near zero, the players
    are split into groups with an independent partition each and the
    referee sums the within-group collision counts, thresholding the
    total at the midpoint. The protocol succeeds once
    k = Θ(n/(2^(ℓ/2)·ε²)) — the trade-off of [1] that the paper's
    Theorem 6.4 lower-bounds (and recovers at q = 1). *)

type t

val make : n:int -> eps:float -> k:int -> bits:int -> t
(** @raise Invalid_argument on bad sizes, [bits] outside [1, 24], more
    buckets than elements, or eps outside (0,1). *)

val expected_uniform : t -> float
(** E[within-group message collisions] under U_n: (Σ_g C(k_g,2))/2^ℓ
    (exact, by balance). *)

val expected_far : t -> float
(** Expected within-group collisions under an ε-far hard instance,
    averaged over the public partitions:
    (Σ_g C(k_g,2))·(1/B + ε²/n·(1−1/B)) with B = 2^ℓ — a matched pair's
    deviation cancels when both halves share a bucket. *)

val cutoff : t -> float
(** Midpoint referee cutoff. *)

val accepts : t -> Dut_prng.Rng.t -> Dut_protocol.Network.source -> bool
(** Run one round: fresh public partition, k single-sample messages,
    count collisions, threshold. *)

val tester : n:int -> eps:float -> k:int -> bits:int -> Evaluate.tester
