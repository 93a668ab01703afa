(** Named counters and gauges for the engine and experiment stack.

    {b Counters} are monotone event tallies ([mc.trials_used],
    [search.probes], [scratch.borrows], …). Each domain increments its
    own table — a plain [int array] in domain-local storage, so the hot
    path is one DLS read and one unsynchronised array write: no locks,
    no cache-line contention. {!snapshot} sums the per-domain tables;
    it is exact whenever no increments are in flight, which is how the
    harness uses it — the engine's pool join is the aggregation point
    (every task has finished, every write is published by the join).

    {b Gauges} are last-value-wins measurements stored process-wide.

    Names are registered once, on first use, and live for the process:
    handles are cheap to keep in module-level [let]s. Registration takes
    a lock; increments never do.

    {b Jobs-invariance.} A counter counts {e events}, and the engine's
    determinism contract makes the event sequence of the jobs-invariant
    quantities ([mc.trials_used], [mc.adaptive_early_stops],
    [search.probes], [search.exact_hits]) identical for every jobs
    count — only the domain a given event lands on changes. Summing
    over domains therefore yields bit-equal totals for any [--jobs].
    Scheduling counters ([pool.tasks_claimed], [pool.idle_ns]) measure
    the schedule itself and are only sum-consistent, not invariant.
    [test/test_obs.ml] pins both halves of this contract. *)

type counter

val counter : string -> counter
(** Register (or look up) the counter [name]. Idempotent: the same name
    always yields a handle onto the same tally. *)

val incr : counter -> unit

val add : counter -> int -> unit
(** Bump the calling domain's tally. Never blocks, never allocates
    after the first use on a domain. *)

type gauge

val gauge : string -> gauge
(** Register (or look up) the gauge [name]. *)

val set_gauge : gauge -> float -> unit

type hist

val histogram : string -> hist
(** Register (or look up) the histogram [name]. Idempotent, like
    {!counter}. *)

val observe : hist -> int -> unit
(** Record one observation into the calling domain's own
    {!Histogram.t}. Same concurrency story as {!add}: no locks on the
    hot path, the per-domain instance is created lazily on first use. *)

val histogram_snapshot : unit -> (string * Histogram.t) list
(** Every registered histogram, sorted by name, merged across all
    domains that ever observed into it (including terminated ones).
    Exact at quiescence; mid-flight it is stale but never corrupt —
    the merge is pointwise over plain int buckets. Each is a
    {!Histogram.compact} copy: words in proportion to the range it
    holds, not 960 per histogram. *)

val histogram_value : string -> Histogram.t
(** The merged histogram for [name]; empty if never registered. *)

type value = Count of int | Value of float

val snapshot : unit -> (string * value) list
(** Every registered metric, sorted by name: counters summed across all
    domains that ever incremented them (including domains that have
    since terminated), gauges at their last set value. Exact at
    quiescence (e.g. after a pool join); see the module preamble. *)

val value : string -> int
(** The summed total of counter [name]; 0 if never registered. *)

val reset : unit -> unit
(** Zero every counter and histogram on every domain and clear every
    gauge. Intended
    for harnesses that measure deltas around a quiescent region (the
    benchmark's workloads); calling it while pool tasks are running
    would race with their increments. *)

val dump : out_channel -> unit
(** Print the snapshot as an aligned [name value] table — the
    [--metrics] output of the binaries. Gauges print with [%g],
    counters as integers; non-empty histograms follow as one
    [count=… p50=… … max<=…] summary line each. *)
