(** HDR-style log2-bucketed histogram over non-negative integers.

    Values 0..15 are exact; every larger value lands in one of 16
    sub-buckets per power-of-two octave, bounding relative bucket width
    by 1/16 across the full native-int range. Merge is pointwise count
    addition — exactly associative and commutative — so per-domain
    histograms can be combined in any order at pool join without
    changing the result.

    A [t] is not thread-safe: each domain records into its own instance
    (see {!Metrics.observe}) and instances are only merged at
    quiescence, or read mid-flight by the timeline sampler, which
    tolerates torn-but-initialized counts per the OCaml memory model. *)

type t

val buckets : int
(** Total number of buckets (960). *)

val create : unit -> t

val compact : t -> t
(** A copy that holds buckets only up to the highest non-empty one
    (one word when empty) instead of all {!buckets}; it equals its
    source and supports every operation, growing back to full length
    if recorded or merged into. {!Metrics.histogram_snapshot} returns
    these, so a reader that keeps a snapshot per pass or per batch pays
    for the range it saw. *)

val copy : t -> t
val clear : t -> unit

val record : t -> int -> unit
(** Record one observation. Negative values clamp to 0. *)

val count : t -> int
val is_empty : t -> bool

val bucket_of : int -> int
(** Bucket index for a value; monotone non-decreasing in the value. *)

val bucket_lo : int -> int
(** Smallest value mapping to the bucket. *)

val bucket_hi : int -> int
(** Largest value mapping to the bucket; [bucket_lo b <= v <= bucket_hi b]
    holds exactly when [bucket_of v = b]. *)

val merge : t -> t -> t
val merge_into : into:t -> t -> unit

val diff : t -> t -> t
(** [diff newer older] is the per-bucket difference clamped at zero:
    interval statistics between two snapshots of a growing histogram. *)

val equal : t -> t -> bool

val quantile_bucket : t -> float -> int option
(** Bucket containing the exact q-quantile (rank [ceil (q*n)]) of the
    recorded multiset; [None] when empty. Raises [Invalid_argument]
    unless [0 <= q <= 1]. *)

val quantile : t -> float -> int option
(** Midpoint of {!quantile_bucket}: within half a bucket's width of the
    exact sorted-sample quantile. *)

val q_or_zero : t -> float -> int
(** {!quantile} defaulting to 0 on an empty histogram. *)

val max_value : t -> int option
(** Upper bound of the highest non-empty bucket — never under-reports
    the true maximum. *)

val summary_json : t -> Json.t
(** [{"count":n,"p50":..,"p90":..,"p95":..,"p99":..,"max":..}], or just
    [{"count":0}] when empty. *)

val to_json : t -> Json.t
(** Sparse exact encoding, [[bucket, count], ...] for every non-empty
    bucket: unlike {!summary_json} this loses nothing, so histograms
    serialised by different processes can be {!of_json}-ed and
    {!merge}-d with the same result as recording into one instance
    (the fleet summary aggregates per-shard latency this way). *)

val of_json : Json.t -> t
(** Inverse of {!to_json} (duplicate buckets sum).
    @raise Json.Malformed on any other shape. *)
