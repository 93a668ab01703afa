(** A fixed-size pool of worker domains with a chunked work queue.

    [create ~jobs] spawns [jobs - 1] worker domains on OCaml 5 stdlib
    primitives only ({!Domain}, {!Mutex}, {!Condition}); the submitting
    domain participates in every job, so a pool of size 1 spawns no
    domains and runs everything inline. One job is in flight at a time;
    concurrent submitters queue on the job-done condition.

    Task indices are claimed from a shared atomic counter, so the
    {e schedule} is dynamic — but the combinators built on top (see
    {!Parallel}) assign work and randomness by index and reduce in index
    order, which makes every result independent of the schedule. *)

type t

val max_jobs : int
(** Largest accepted [jobs]: OCaml 5's 128-domain runtime limit. *)

val effective_jobs : int -> int
(** [effective_jobs jobs] is [jobs] clamped to
    [Domain.recommended_domain_count ()]. Oversubscription buys only
    synchronisation overhead (results are jobs-invariant), so every
    jobs request in the engine goes through this clamp; the first
    clamping prints a one-line note to stderr. *)

val create : jobs:int -> t
(** [create ~jobs] builds a pool of total parallelism
    [effective_jobs jobs] (the submitter plus the spawned worker
    domains). Each worker records backtraces exactly when the calling
    domain does ({!Printexc.backtrace_status}) at creation.

    @raise Invalid_argument if [jobs < 1] or [jobs > max_jobs]. *)

val jobs : t -> int
(** The parallelism the pool was created with. *)

val run : t -> tasks:int -> (int -> unit) -> unit
(** [run t ~tasks f] executes [f 0 .. f (tasks - 1)], distributing
    indices over the pool's domains, and returns once the job has
    drained. A call made from inside a pool task (see {!in_task}) runs
    the tasks sequentially inline, so nested data-parallelism never
    deadlocks and never over-subscribes.

    {b Failure semantics (identical for every jobs count).} The first
    exception a task raises {e cancels} the job: task indices not yet
    claimed are never run (tallied in the [pool.tasks_cancelled]
    counter), tasks already running on other domains complete, and once
    the job drains the first exception is re-raised to the submitter
    with its original backtrace. The inline path (jobs = 1, a single
    task, or a nested call) aborts at the first exception the same way,
    so failure behavior does not depend on [--jobs]. Results completed
    into caller-owned slots before the failure are unaffected.

    A deadline armed on the submitting domain ({!Deadline.with_timeout})
    is inherited by every task of the job and checked at each claim, so
    an expired budget surfaces as {!Deadline.Exceeded} through the same
    cancellation path.

    @raise Invalid_argument after {!shutdown}. *)

val shutdown : t -> unit
(** Stop and join every worker domain; idempotent. An in-flight job
    drains before the workers exit. *)

val in_task : unit -> bool
(** True while the calling domain is executing a pool task. *)
