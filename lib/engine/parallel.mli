(** Deterministic data-parallel combinators over a shared domain pool.

    {b The determinism contract.} Work and randomness are assigned by
    {e index}: the [init]-family combinators pre-split one child
    {!Dut_prng.Rng.t} per element, in element order, on the submitting
    domain {e before} any parallel execution begins, and reductions fold
    results back in element order. A chunk of contiguous indices is the
    unit of scheduling, never of seeding. Consequently every combinator
    returns bit-identical results for every [jobs] count, including
    [jobs = 1]: the schedule can influence only wall-clock time, never a
    single output bit. [Parallel.init ~jobs ~rng ~n f] is, for every
    [jobs], exactly [Array.init n (fun i -> f (Rng.split rng) i)]
    evaluated left to right.

    User functions must draw randomness only from the [Rng.t] they are
    handed and must not mutate state shared across elements.

    [jobs] defaults to the ambient value (see {!set_default_jobs}),
    which is initialised from the [DUT_JOBS] environment variable, else
    1. Every jobs count — explicit or ambient — is clamped to the
    host's recommended domain count (see {!Pool.effective_jobs}):
    oversubscription cannot change a result, only slow it down. Calls
    made from inside a pool task run sequentially inline, so nesting is
    safe and never over-subscribes the machine. *)

val env_jobs : unit -> int
(** Parse [DUT_JOBS] from the environment. Accepted values are integers
    [>= 1] (values above the host's recommended domain count are later
    clamped by {!Pool.effective_jobs}); unset means 1. A malformed or
    non-positive value also falls back to 1, with a one-shot stderr
    warning naming the rejected value. *)

val set_default_jobs : int -> unit
(** Set the ambient jobs count (process-wide).

    @raise Invalid_argument if the argument is [< 1]. *)

val chunks : n:int -> chunk:int -> (int * int) array
(** [chunks ~n ~chunk] partitions [0 .. n-1] into contiguous half-open
    index ranges [(lo, hi)] of size [chunk] (the last may be smaller),
    in order. Scheduling granularity only — exposed for tests.

    @raise Invalid_argument if [n < 0] or [chunk < 1]. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map f a] is [Array.map f a], computed on up to [jobs] domains.
    [f] must be pure (it may run on any domain, in any order). *)

val init :
  ?jobs:int ->
  rng:Dut_prng.Rng.t ->
  n:int ->
  (Dut_prng.Rng.t -> int -> 'a) ->
  'a array
(** [init ~rng ~n f] is [[| f r_0 0; …; f r_(n-1) (n-1) |]] where [r_i]
    is the [i]-th child split off [rng] — the same array for every
    [jobs], and the same streams the sequential
    [Array.init n (fun i -> f (Rng.split rng) i)] would see. *)

val init_reduce :
  ?jobs:int ->
  rng:Dut_prng.Rng.t ->
  n:int ->
  f:(Dut_prng.Rng.t -> int -> 'a) ->
  init:'b ->
  reduce:('b -> 'a -> 'b) ->
  'b
(** Left fold of [reduce] over the elements of [init ~rng ~n f], in
    index order (no associativity requirement on [reduce]). *)

val fold_chunks :
  ?jobs:int ->
  rng:Dut_prng.Rng.t ->
  n:int ->
  chunk:int ->
  f:(Dut_prng.Rng.t -> lo:int -> hi:int -> 'a) ->
  init:'b ->
  merge:('b -> 'a -> 'b) ->
  'b
(** Incremental fold over [0 .. n-1] in contiguous chunks of [chunk]
    elements (the last may be shorter): each chunk [c] with bounds
    [(lo, hi)] is reduced to a partial value by [f r_c ~lo ~hi], where
    [r_c] is the [c]-th child split off [rng], and the partials are
    merged left to right in chunk index order.

    Unlike the [init] family, the chunk — not the element — is the unit
    of {e seeding}: chunk boundaries depend only on [chunk], never on
    [jobs], so the result is bit-identical for every jobs count even
    when [merge] is not commutative, and a growing stream can be
    consumed chunk by chunk without per-element state for the whole
    prefix. This is the ingestion path of [Dut_stream]; [chunk] is part
    of the determinism contract (changing it changes which child
    streams exist).

    Cooperative cancellation ({!Deadline}) is checked once per chunk on
    the sequential fallback — exactly the granularity of the pooled
    path, which checks at every task claim — so [--timeout-s] bites the
    same way for every jobs count.

    @raise Invalid_argument if [n < 0] or [chunk < 1]. *)

val count :
  ?jobs:int ->
  rng:Dut_prng.Rng.t ->
  n:int ->
  (Dut_prng.Rng.t -> int -> bool) ->
  int
(** Number of indices on which the predicate holds — the Monte-Carlo
    success counter. *)

