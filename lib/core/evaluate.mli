(** Empirical evaluation of testers against the paper's adversary.

    A tester is judged exactly as in Section 2: it must accept the
    uniform distribution with probability ≥ 2/3 and reject a random hard
    instance ν_z with probability ≥ 2/3, where a {e fresh} perturbation z
    is drawn for every trial (the mixture adversary of the lower bounds).
    The empirical "sample complexity" of a tester family is the least q
    at which both estimated probabilities clear a success level. *)

type tester = Dut_prng.Rng.t -> Dut_protocol.Network.source -> bool
(** A tester is its accept function: run one full round against a
    sampling oracle, [true] = accept. *)

type power = {
  uniform_accept : Dut_stats.Binomial_ci.t;
  far_reject : Dut_stats.Binomial_ci.t;
}
(** The two error sides, with Wilson intervals. *)

val measure :
  trials:int -> rng:Dut_prng.Rng.t -> ell:int -> eps:float -> tester -> power
(** [measure ~trials ~rng ~ell ~eps tester] estimates both success
    probabilities over [trials] rounds each: uniform rounds on U_n with
    n = 2^(ℓ+1), far rounds on ν_z with fresh random z per round. *)

val succeeds :
  ?adaptive:bool ->
  trials:int ->
  level:float ->
  rng:Dut_prng.Rng.t ->
  ell:int ->
  eps:float ->
  tester ->
  bool
(** Point-estimate success at [level] (use e.g. 0.75 to demand a margin
    over the definitional 2/3): both sides' estimates must reach it.

    With [~adaptive:true] (default [false]) each side uses
    {!Dut_stats.Montecarlo.estimate_prob_adaptive}: trials stop as soon
    as the Wilson interval is decisively above or below [level]
    (capped at [trials]), and a decisively failing uniform side skips
    the far side entirely. Off the decision boundary a probe costs
    O(chunk) trials instead of the full budget; the verdict criterion
    is the same point-estimate comparison, and the result is still
    bit-identical for every jobs count. *)

val critical_q :
  ?adaptive:bool ->
  trials:int ->
  level:float ->
  rng:Dut_prng.Rng.t ->
  ell:int ->
  eps:float ->
  ?lo:int ->
  ?hi:int ->
  ?guess:int ->
  (int -> tester) ->
  int option
(** [critical_q … make] is the least q with [succeeds (make q)], by
    doubling + bisection; [None] if even [hi] fails. Each probe gets an
    independent RNG stream derived from [rng], so probes are
    reproducible and (statistically) independent.

    [?adaptive] is forwarded to {!succeeds}. When [?guess] is given the
    bracket is warm-started there via
    {!Dut_stats.Critical.search_seeded} instead of cold-doubling from
    [lo] — grid experiments seed it with the previous grid point's q*
    scaled by the theory exponent, roughly halving the number of
    Monte-Carlo power estimates per point. *)
