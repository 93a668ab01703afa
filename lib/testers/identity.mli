(** Identity testing by reduction to uniformity — the completeness
    property the paper's abstract leans on ("uniformity testing is a
    particularly useful building-block, because it is complete for the
    problem of testing identity to any fixed distribution"), after
    Goldreich 2016 [11].

    To test whether unknown samples come from a {e known} target p, or
    from something ε-far from p:

    + mix: replace each sample by a uniform one with probability 1/2
      (so every effective mass is ≥ 1/(2n), at the price of halving
      distances);
    + flatten: split element i into c_i ∝ (p(i)+1/n)/2 equal-mass
      copies on a granulated domain of m = ⌈8n/ε⌉ elements, and send
      each sample to a uniformly random copy of itself;
    + test uniformity of the flattened samples on [m] at proximity
      ε/4 (splitting preserves ℓ1 exactly; granulation costs ≤ ε/8;
      mixing halves the distance).

    Soundness/completeness therefore ride entirely on the uniformity
    tester — which is the point. *)

type reduction
(** The flattening tables for one target distribution. *)

val make : target:Dut_dist.Pmf.t -> eps:float -> reduction
(** Build the reduction at proximity [eps].

    @raise Invalid_argument if eps outside (0,1). *)

val flattened_size : reduction -> int
(** The granulated domain size m. *)

val copies : reduction -> int array
(** c_i: how many granules element i owns (Σ c_i = m, every c_i ≥ 1). *)

val map_sample : reduction -> Dut_prng.Rng.t -> int -> int
(** Mix-and-flatten one raw sample into [0, m). *)

val test :
  reduction -> Dut_dist.Pmf.t -> Dut_prng.Rng.t -> int array -> bool
(** [test r target rng samples] — [true] = "consistent with the
    target". [target] must be the pmf the reduction was built from
    (used only for sanity checking sizes). The flattened samples are
    counted in this domain's [Dut_engine.Scratch.hist], which a caller
    must not be holding across the call.

    @raise Invalid_argument on a universe-size mismatch. *)

val recommended_samples : n:int -> eps:float -> int
(** Samples for reliable identity testing through the reduction:
    the collision tester's count on the m ≈ 8n/ε-element flattened
    domain at proximity ε/4 — Θ(√(n/ε)/ε²·…). *)
