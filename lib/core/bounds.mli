(** Every quantitative statement of the paper, as executable formulas.

    Each function returns the Θ/Ω/O expression with its leading constant
    set to 1 (the paper leaves constants unspecified); experiments compare
    {e shapes} — ratios across parameter sweeps — against these, never
    absolute values. Functions named [thmXX_*] are the paper's theorems;
    [fmo_*] are the upper bounds of Fischer–Meir–Oshman (PODC 2018, the
    paper's [7]); [act_*] are Acharya–Canonne–Tyagi (the paper's [1]). *)

val centralized : n:int -> eps:float -> float
(** Θ(√n/ε²), the centralized sample complexity [16]. *)

val thm11_lower : n:int -> k:int -> eps:float -> float
(** Theorem 1.1: Ω(√(n/k)/ε²) per player, any decision rule, valid for
    k ≤ n/ε². *)

val thm11_applies : n:int -> k:int -> eps:float -> bool

val thm61_lower : n:int -> k:int -> eps:float -> float
(** Theorem 6.1: (C/ε²)·min(√(n/k), n/k) — the full form without the
    k ≤ n/ε² restriction. *)

val thm12_and_lower : n:int -> k:int -> eps:float -> float
(** Theorem 1.2: Ω(√n/(log²k · ε²)) per player under the AND rule, valid
    for k ≤ 2^(c/ε). For k = 1 (log k = 0) this degrades to the
    centralized bound √n/ε². *)

val thm12_applies : k:int -> eps:float -> c:float -> bool
(** The k ≤ 2^(c/ε) applicability condition. *)

val thm13_threshold_lower : n:int -> k:int -> eps:float -> t:int -> float
(** Theorem 1.3: Ω(√n/(T·log²(k/ε)·ε²)) per player under the T-threshold
    rule, valid for T < c/(ε²·log²(k/ε)) and k ≤ √n. *)

val thm14_learning_nodes : n:int -> q:int -> float
(** Theorem 1.4: Ω(n²/q²) nodes to learn a δ-approximation with q
    queries per node. *)

val thm64_rbit_lower : n:int -> k:int -> eps:float -> r:int -> float
(** Theorem 6.4: (C/ε²)·min(√(n/(2^r·k)), n/(2^r·k)) per player when
    players send r bits. *)

val fmo_and_upper : n:int -> k:int -> eps:float -> float
(** [7]'s AND-rule tester: O(√n/(k^(ε²)·ε²)) per player (exponent
    constant set to 1). *)

val fmo_threshold_upper : n:int -> k:int -> eps:float -> float
(** [7]'s threshold tester: O(√(n/k)/ε²) per player — matches
    Theorem 1.1, hence optimal. *)

val act_single_sample_nodes : n:int -> eps:float -> bits:int -> float
(** [1]: Θ(n/(2^(ℓ/2)·ε²)) single-sample nodes sending ℓ bits each. *)

val act_learning_nodes : n:int -> eps:float -> bits:int -> float
(** [1]: Θ(n²/(2^ℓ·ε²)) single-sample nodes to learn. *)

val async_time_lower : n:int -> eps:float -> rates:float array -> float
(** Section 6.2: τ = Ω(√n/(ε²·‖T‖₂)) for sampling-rate vector T. *)

val l2_norm : float array -> float
(** ‖T‖₂, exported for the asymmetric-cost experiment. *)

val lemma51_rhs : q:int -> n:int -> eps:float -> var_g:float -> float
(** Lemma 5.1: 4qε²/√n · √var(G), bounding |E_z[ν_z(G)] − μ(G)|. *)

val lemma51_applies : q:int -> n:int -> eps:float -> bool
(** q ≤ √n/(4ε²). *)

val lemma42_rhs : q:int -> n:int -> eps:float -> var_g:float -> float
(** Lemma 4.2: (20q²ε⁴/n + qε²/n)·var(G), bounding
    E_z[|ν_z(G) − μ(G)|²]. *)

val lemma42_applies : q:int -> n:int -> eps:float -> bool
(** q ≤ √n/(20ε²). *)

val lemma42_rhs_slack : q:int -> n:int -> eps:float -> var_g:float -> float
(** Lemma 4.2's right-hand side with the linear term's constant raised
    from 1 to 4: (20q²ε⁴/n + 4qε²/n)·var(G). Exhaustive verification
    (experiment F1) shows the literal constant 1 is violated by a factor
    up to 2 by the side-bit detector at q = 1 — a benign constant slip,
    since downstream uses absorb it into Ω(·) — while this slack form
    holds for every function we can enumerate. *)

val lemma43_rhs : q:int -> n:int -> eps:float -> var_g:float -> m:int -> float
(** Lemma 4.3: (q/√n + (q/√n)^(1/(2m+2)))·40m²ε²·var(G)^((2m+1)/(2m+2)),
    bounding |E_z[ν_z(G)] − μ(G)| for biased G. *)

val lemma43_applies : q:int -> n:int -> eps:float -> m:int -> bool
(** q ≤ min(√n/(40m²ε²), √n/(40m²ε²)^(m+1)). *)

val lemma44_rhs :
  q:int -> n:int -> eps:float -> var_g:float -> m:int -> c:float -> float
(** Lemma 4.4 with explicit constant [c]: 2ε²q/n·var(G) +
    C·(q/√n + (q/√n)^(1/(m+1)))·m²ε²·var(G)^(2−1/(m+1)). *)

val divergence_requirement : k:int -> delta:float -> float
(** (10): per-player divergence needed to succeed w.p. 1−δ,
    log(1/δ)/(10k) bits. *)

val asymmetric_divergence_requirement :
  k:int -> delta1:float -> delta0:float -> float
(** The Section 6.2 remark: with asymmetric error probabilities — δ₁ =
    P[reject uniform], δ₀ = P[accept far] — the log(1/δ) of (10) is
    replaced by D(B(δ₁) ‖ B(1−δ₀)); per player, divided by 10k. Recovers
    the symmetric form at δ₁ = δ₀ = δ up to the Bernoulli-vs-log
    slack, and shows highly-one-sided testers (δ₁ → 0) need {e more}
    divergence — the paper's "the highly biased tester of [7] is optimal"
    observation. *)

val divergence_budget : q:int -> n:int -> eps:float -> float
(** (12): per-player divergence available with q samples,
    (20q²ε⁴/n + qε²/n)/ln 2 bits. *)
