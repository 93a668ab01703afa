(** The player-side local statistic shared by all distributed testers.

    Every player in the [7]-style protocols summarizes its q samples by
    the number of colliding pairs — the statistic the paper's Section 3
    identifies as the only source of signal — and compares it to a
    cutoff. Which cutoff depends on the decision rule: midpoint cutoffs
    give a constant-advantage vote (for threshold/majority referees);
    extreme tail cutoffs give rare-alarm votes (for the AND rule and
    small thresholds, where a single false alarm kills the round).

    The cutoff machinery is exposed twice: parameterized by an explicit
    edge/triangle count (the comparison-graph core shared with
    {!Comparison_graph}, where the statistic is a sum of edge indicators
    over an arbitrary graph on the samples), and specialized to the
    clique (the classic all-pairs collision count, edges = C(q,2),
    triangles = C(q,3)). The clique wrappers are thin instantiations of
    the core, so graph instances and the per-player votes of the other
    testers can never disagree on shared cutoffs. *)

val collisions : int array -> int
(** Number of unordered equal pairs among the samples, by sorting a
    scratch copy: O(q log q), independent of the universe size. *)

val collisions_bounded : n:int -> int array -> int
(** Same count for samples drawn from the universe [0 .. n-1]. For
    small universes (n ≤ 2^16) this is a counting sort through a
    per-domain generation-stamped scratch histogram — O(q) time, zero
    allocation, no O(n) clearing — and it falls back to {!collisions}
    beyond. Always returns exactly what {!collisions} would.

    @raise Invalid_argument if [n <= 0]; samples outside [0 .. n-1] are
    undefined behaviour on the counting path. *)

(** {2 The edge-parameterized cutoff core}

    [edges] and [triangles] are float counts of the comparison graph's
    edges and triangles. Under the uniform null every edge indicator
    fires with probability 1/n and any two distinct edges are pairwise
    independent, so mean and variance see only [edges]; the third
    central moment additionally sees [triangles]. *)

val null_mean_edges : n:int -> edges:float -> float
(** E[statistic] for uniform samples: edges/n. *)

val far_mean_edges : n:int -> edges:float -> eps:float -> float
(** E[statistic] under collision probability (1+ε²)/n — the minimum
    over ε-far distributions. *)

val midpoint_cutoff_edges : n:int -> edges:float -> eps:float -> float
(** The constant-advantage cutoff edges·(1+ε²/2)/n. *)

val alarm_cutoff_edges :
  n:int -> edges:float -> triangles:float -> false_alarm:float -> int
(** The rare-alarm cutoff: the smallest integer c such that
    P[statistic ≥ c] ≲ [false_alarm] under the uniform null. Uses the
    Poisson model in the sparse regime (mean ≤ 50) and a Cornish–Fisher
    corrected normal beyond it, whose third moment carries an extra
    6·triangles/n² term (a triangle of edges fires together with
    probability 1/n², which plain normal tails underestimate). The two
    regimes agree to ±1 at the handoff (pinned by test); the
    Cornish–Fisher quantile is rounded up exactly once. *)

(** {2 The comparison convention}

    Both cutoff styles accept strictly below the cutoff; a statistic
    {e equal} to the cutoff rejects (alarms). Midpoint comparisons are
    in float space (exact — counts are far below 2^53), alarm
    comparisons in integer space. Every tester must decide through
    these two functions so boundary counts cannot diverge between
    testers. *)

val accepts_midpoint : cutoff:float -> int -> bool
(** [accepts_midpoint ~cutoff count] is [float count < cutoff]: accept
    strictly below, reject on a tie. *)

val accepts_alarm : cutoff:int -> int -> bool
(** [accepts_alarm ~cutoff count] is [count < cutoff]: accept strictly
    below, alarm on a tie. *)

(** {2 Clique instantiations} *)

val null_mean : n:int -> q:int -> float
(** E[collisions] for q uniform samples: C(q,2)/n. *)

val far_mean : n:int -> q:int -> eps:float -> float
(** E[collisions] for q samples from a distribution with collision
    probability (1+ε²)/n — the minimum over ε-far distributions. *)

val midpoint_cutoff : n:int -> q:int -> eps:float -> float
(** The constant-advantage cutoff C(q,2)(1+ε²/2)/n. A player votes
    accept iff its collision count is strictly below this. *)

val alarm_cutoff : n:int -> q:int -> false_alarm:float -> int
(** {!alarm_cutoff_edges} at the clique: edges = C(q,2), triangles =
    C(q,3) — the count's "index-sharing pair triangle" skew term that
    matters once q > n. *)

val vote_midpoint : n:int -> q:int -> eps:float -> int array -> bool
(** Accept vote using the midpoint cutoff ({!accepts_midpoint}). *)

val vote_alarm : n:int -> q:int -> false_alarm:float -> int array -> bool
(** Accept vote using the rare-alarm cutoff ({!accepts_alarm}): [false]
    (alarm!) only when the collision count reaches the tail cutoff. *)

val null_midpoint_rejects :
  n:int -> q:int -> eps:float -> voters:int -> Dut_prng.Rng.t -> int
(** How many of [voters] midpoint voters ({!vote_midpoint}) reject when
    each in turn draws q samples with [Rng.int rng n]: one null round of
    the calibration every midpoint-vote referee shares. The samples live
    in one per-domain scratch buffer. *)
