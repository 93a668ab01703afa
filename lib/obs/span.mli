(** Structured span tracing to a JSON Lines sink.

    A span is one timed region — an experiment, a table, a service
    request. [with_ ~name ~attrs f] runs [f] and, if a sink is open,
    appends one JSON object on its own line when the region ends:

    {v
    {"name":"experiment","span":3,"parent":2,"domain":0,
     "start_ns":1200345,"dur_ns":88211,"attrs":{"id":"T1-any-rule"}}
    v}

    [span] ids are unique per process; [parent] is the id of the
    enclosing span {e on the same domain} ([null] at top level —
    experiment spans running as pool tasks are roots, because the
    parent lives on the submitting domain). [start_ns] is nanoseconds
    since process start on a monotonised wall clock: timestamps never
    decrease, across all domains. Lines from concurrent domains are
    serialised by a mutex, so the sink is always valid JSONL.

    Tracing is strictly out of band: with no sink open [with_] is just
    a call to [f] — no ids, no clock reads, no stack — so enabling
    [--trace] can never perturb results, and stdout stays byte-identical
    either way. *)

val set_sink : string option -> unit
(** [set_sink (Some path)] opens (truncates) [path] and starts emitting;
    [set_sink None] flushes and closes. The process exit hook closes an
    open sink. *)

val enabled : unit -> bool
(** Whether a sink is currently open. *)

val now_ns : unit -> int
(** Nanoseconds since process start, monotone non-decreasing across
    domains (a wall-clock read clamped to the latest timestamp already
    issued). Also used by the engine's [pool.idle_ns] accounting. *)

val with_ : ?attrs:(string * Json.t) list -> name:string -> (unit -> 'a) -> 'a
(** Run the thunk as a span. If it raises, the span is still emitted,
    with an extra ["raised": true] member, and the exception is
    re-raised. *)
