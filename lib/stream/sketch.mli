(** Bounded-memory per-player stream state.

    A sketch summarises an unbounded sample stream from the universe
    [0 .. n-1] in a fixed number of machine words, chosen up front as a
    {e memory budget}, and supports the collision statistic the batch
    testers decide on. Two kinds:

    - {!Hist} — a bounded histogram: samples hash into [B] buckets
      (identity when the budget covers the whole domain, in which case
      the sketch is {e exact} and reproduces the batch collision
      statistic bit for bit); the statistic is the collision-pair count
      of the hashed stream. Hashing shrinks the ℓ2 distance signal by a
      factor [1 - 1/B] in expectation — the measurable price of memory.
    - {!Ams} — a pairwise-collision (second-moment) sketch after
      Alon–Matias–Szegedy: [K] counters of ±1-signed sums whose squares
      estimate Σ_x c_x² and hence the collision-pair count, unbiased at
      any budget, with variance growing as the budget shrinks.

    Both are {e mergeable}: merging is integer addition of the
    histograms (resp. counters), so it is exactly associative and
    commutative — [merge (merge a b) c], [merge a (merge b c)] and any
    reordering produce {!equal} sketches. All players (and all chunks of
    one player's stream) must share one {!config}: the hash salt derives
    from the root seed, so a distributed fleet agrees on bucket
    assignments by construction.

    {b Cost.} A [Hist] sketch keeps its one bucket-sized array as a
    {e log} of bucket indices while it is filled by {!add} with at most
    {!buckets} samples, and as a histogram once it outgrows that or is
    merged into (converted once, in place). So a short chunk costs its
    samples, not the bucket count: clearing it is O(1), and
    {!merge_into} replays only its samples. The
    histogram's collision-pair count is kept as an integer, so
    {!collision_stat} of an exact histogram is O(1). Statistics,
    {!equal} and {!fingerprint} see only the histogram view; a logged
    sketch is counted through the domain's
    {!Dut_engine.Scratch.hist} (O(samples)) when a statistic asks.

    Memory claims are measured, not asserted: {!words_used} counts the
    words a sketch actually holds (bucket array plus a fixed
    {!header_words} overhead) and never exceeds the configured budget. *)

type kind = Hist  (** bounded histogram *) | Ams  (** ±1 second-moment sketch *)

val kind_to_string : kind -> string

val kind_of_string : string -> kind option

type config
(** Shared sketch parameters: kind, universe size, bucket count, hash
    salt, and the exact null collision rate of the hashed uniform
    distribution. Immutable; build once per stream setup and share it
    across every player and chunk. *)

val header_words : int
(** Fixed per-sketch overhead charged against the budget (bookkeeping
    fields: kind, universe, salt, counts, …). *)

val config : kind:kind -> n:int -> budget_words:int -> seed:int -> config
(** [config ~kind ~n ~budget_words ~seed] allocates
    [budget_words - header_words] words of bucket state. For [Hist] the
    bucket count is additionally capped at [n] (beyond that the
    histogram is exact and more memory buys nothing). The hash salt is
    derived from [seed] with SplitMix64, so equal seeds give identical
    sketches on every player, every jobs count, every process.

    @raise Invalid_argument if [n <= 0] or
    [budget_words <= header_words]. *)

val exact_budget : n:int -> int
(** The smallest budget at which a [Hist] sketch is exact (identity
    hashing): [n + header_words]. *)

val kind_of : config -> kind

val universe : config -> int

val buckets : config -> int
(** Bucket (or counter) count the budget bought. *)

val is_exact : config -> bool
(** Whether a [Hist] config covers the domain exactly. [false] for
    [Ams]. *)

type t
(** One mutable sketch instance. *)

val create : config -> t
(** A fresh empty sketch. *)

val config_of : t -> config

val add : t -> int -> unit
(** Ingest one sample (tallied as [stream.samples_ingested]).

    @raise Invalid_argument if the sample is outside [0 .. n-1]. *)

val add_range : t -> int array -> lo:int -> hi:int -> unit
(** [add_range t xs ~lo ~hi] ingests [xs.(lo) .. xs.(hi-1)] in order:
    every sample is range-checked before any is added, and the range is
    tallied once as [stream.samples_ingested].

    @raise Invalid_argument if the range is not within [xs] or a sample
    is outside [0 .. n-1] (then nothing is added). *)

val count : t -> int
(** Samples ingested so far. *)

val words_used : t -> int
(** Measured footprint in words: bucket array length plus
    {!header_words} — everything the sketch holds, log or histogram. By
    construction [words_used t <= budget_words]. *)

val clear : t -> unit
(** Empty the sketch in place, keeping its array: O(1) for [Hist]
    (the sketch becomes an empty log), O(K) for [Ams]. *)

val copy : t -> t
(** A fresh sketch with the same state. *)

val blit : src:t -> dst:t -> unit
(** Overwrite [dst]'s state with [src]'s, reusing [dst]'s array:
    O(samples) while [src] is a log.

    @raise Invalid_argument if the configs differ. *)

val merge_into : into:t -> t -> unit
(** [merge_into ~into src] adds [src] into [into] in place; [src] is
    left untouched. Afterwards [into] equals the sketch of [into]'s
    stream followed by [src]'s, and is a histogram. O(samples of [src])
    when [src] is a log, O(buckets) otherwise, plus a one-time
    O(buckets) conversion when [into] is still a log. Tallied once as
    [stream.sketch_merges].

    @raise Invalid_argument if the two sketches were built from
    different configs. *)

val merge : t -> t -> t
(** [merge a b] is a {!copy} of [a] with [b] merged into it; both
    inputs are left untouched. Exactly associative and commutative.

    @raise Invalid_argument as {!merge_into}. *)

val subtract : from:t -> t -> unit
(** [subtract ~from src] removes from [from] a sketch that was merged
    into it earlier — the sliding-window eviction of {!Anytime}. Counts
    are integers, so the result equals the merge of what remains.
    O(samples of [src]) when [src] is a log (plus a one-time O(buckets)
    conversion when [from] is one). Not tallied. The result is
    unspecified if [src] was never merged into [from].

    @raise Invalid_argument if the configs differ or [src] holds more
    samples than [from]. *)

val equal : t -> t -> bool
(** Equality of the sketched state: same config, same count, same
    histogram (resp. counters), whatever the representation. *)

val fingerprint : t -> string
(** A stable textual digest of the histogram (resp. counters) and the
    count; equal sketches have equal fingerprints. Used by the
    determinism tests. *)

(** {2 The collision statistic} *)

val collision_stat : t -> float
(** Raw collision estimate: the number of colliding (unordered equal)
    pairs of the {e hashed} stream for [Hist] (of the raw stream too
    when {!is_exact}), and the mean per-counter estimate
    ((z_k² - count)/2) for [Ams]. Its null expectation is
    {!null_mean}; for a single frozen salt the raw [Ams] value is
    biased by the sign drift folded into the null rate of
    {!null_mean} — decisions therefore run on {!excess}/{!decision_stat},
    not on this. *)

val null_mean : t -> float
(** E\[{!collision_stat}\] when the stream is uniform, exact for the
    frozen hash: C(count, 2) · p, where p, the per-pair null rate, is
    Σ_b (L_b/n)² over bucket loads L_b for [Hist] (= 1/n when exact),
    and the mean over counters of (S_k/n)² for [Ams], S_k being the
    k-th sign hash summed over the domain — the per-salt drift the raw
    AMS estimate is biased by. p is computed once at {!config} time,
    never estimated. *)

val excess : t -> float
(** The centered decision statistic: the deviation of the sketch from
    the {e exact} null expectation of every bucket (resp. counter)
    under the frozen hash —
    Σ_b ((N_b - m·q_b)² - N_b(1 - q_b))/2 for [Hist] (which reduces
    to [collision_stat - null_mean] when exact), and the mean over
    counters of ((z_k - m·μ_k)² - m(1 - μ_k²))/2 for [Ams]. Exactly
    zero-mean on uniform streams; ≈ {!gap} in expectation on ε-far
    streams. Centering is what kills both the bucket-load variance
    term (~ C(m,3)·Σq³) and the AMS per-salt bias, so the memory/
    sample tradeoff q* ~ n/√B is actually attained. *)

val null_sd : t -> float
(** Standard deviation of {!excess} under the uniform null:
    ≈ sqrt(C(count,2) · p(1-p)) with p the null rate of {!null_mean} (the
    identity-testing chi-square rate), plus the sketch's own estimator
    variance ≈ count²/2K for [Ams]. Feeds the eps-spending thresholds
    of {!Anytime}. *)

val gap : t -> eps:float -> float
(** Expected value of {!excess} for an ε-far stream, {e as retained by
    this sketch}: C(count,2) · ε²/n scaled by the hash's
    distance-retention factor [1 - 1/B] (1 when exact, and 1 for
    [Ams]). *)

val decision_stat : t -> float
(** What {!accepts} compares against {!cutoff}: {!collision_stat} when
    {!is_exact} (preserving bit-compatibility with the batch tester),
    {!excess} otherwise. *)

val cutoff : t -> eps:float -> float
(** The batch decision threshold on {!decision_stat}. When
    {!is_exact} this is {!Dut_testers.Collision.cutoff} — bit-identical
    to the batch tester's, so verdicts agree exactly. Otherwise the
    midpoint [gap/2] on the zero-centered {!excess}. *)

val accepts : t -> eps:float -> bool
(** [decision_stat t < cutoff t ~eps] — the batch decision rule on the
    sketched stream. *)
