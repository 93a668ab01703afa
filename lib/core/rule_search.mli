(** Exact optimization over {e every} decision rule — Theorem 1.1's
    "for any decision rule f" quantifier, taken literally on small
    instances.

    Fix a player function G (all k players identical, iid samples).
    Under the uniform input each bit is Bernoulli(a₀ = μ(G)); under ν_z
    it is Bernoulli(ν_z(G)). Because the bits are iid, any referee's
    acceptance probability depends on its rule f only through the layer
    counts t_j = #accepting inputs with j ones, 0 ≤ t_j ≤ C(k,j):

      accept-uniform A(t) = Σ_j t_j·a₀^j (1−a₀)^(k−j)
      reject-far     R(t) = 1 − Σ_j t_j·E_z[ν_z(G)^j (1−ν_z(G))^(k−j)]

    (the z-expectation is exact: all 2^(2^ℓ) perturbations enumerated).
    The best achievable success probability over all rules — randomized
    referees included — is max_t min(A, R) over the integer box, whose
    LP relaxation equals min_λ max_t [λA + (1−λ)R] by minimax duality
    and is computed here to high precision by minimizing the convex
    λ-envelope. A value < 2/3 is therefore an {e exact impossibility}
    for every decision rule at that (G, k, q). *)

val vote_probs : Exact.g -> eps:float -> float * float array
(** [(a0, a_z-array)]: the player's acceptance probability under
    uniform, and under every perturbation z (in {!Exact.iter_all_z}
    order). *)

val envelope_value : k:int -> a0:float -> a_far:float array -> float -> float
(** The dual λ-envelope max_t [λA(t) + (1−λ)R(t)] at one λ ∈ [0,1].
    Convex in λ; {!best_rule_value} is its minimum. Exposed so tests
    can pin both facts against the minimizer.

    @raise Invalid_argument on inputs out of range. *)

val best_rule_value : k:int -> a0:float -> a_far:float array -> float
(** The LP value of max over all (possibly randomized) rules of
    min(accept-uniform, average reject-far), for k iid player bits.
    Computed by minimizing the convex λ-envelope: a 201-point grid
    brackets the minimizer, then golden-section (with point reuse)
    refines within the one-step bracket.

    @raise Invalid_argument if [k <= 0], probabilities out of [0,1], or
    the far array is empty. *)

val best_rule_value_integer : k:int -> a0:float -> a_far:float array -> float
(** The same optimum restricted to deterministic rules (integer layer
    counts), by exact enumeration of layer profiles. Only for k ≤ 6
    (the profile count is Π(C(k,j)+1)).

    @raise Invalid_argument as above or if k > 6. *)

val and_rule_value : k:int -> a0:float -> a_far:float array -> float
(** min(accept-uniform, average reject-far) of the {e fixed} AND rule:
    a₀^k vs 1 − E_z[a_z^k]. Always ≤ {!best_rule_value}; the exact gap
    is the locality cost at this instance. *)

val best_over_strategies :
  ell:int -> q:int -> eps:float -> k:int -> float * string
(** Max of {!best_rule_value} over the built-in player-strategy family
    (collision acceptors at every cutoff and the s-detector; complements
    are unnecessary — the referee's layer counts absorb bit flips), with
    the name of the best strategy. *)

val best_and_over_strategies : ell:int -> q:int -> eps:float -> k:int -> float
(** Max of {!and_rule_value} over the same family. *)

(** {2 Graph-space strategies}

    Comparison-graph players for the exact-LP search: a graph family
    plus an alarm cutoff defines a player function — accept iff the
    graph's edge-collision statistic is strictly below the cutoff, on
    the universe n = 2^(ell+1) — tabulated through
    {!Exact.of_predicate} like any other strategy. The clique at every
    cutoff coincides with the collision-acceptor family, so the two
    searches cross-check each other for free. *)

val best_over_graphs :
  ell:int ->
  q:int ->
  eps:float ->
  k:int ->
  Comparison_graph.family list ->
  float * string
(** Max of {!best_rule_value} over every family's players at every
    cutoff 1 .. edge_count + 1, with the winning strategy's name,
    ["graph-<family><<cutoff>"]. *)
