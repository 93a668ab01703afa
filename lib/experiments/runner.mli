(** Shared experiment execution/printing used by the CLI and the
    benchmark of record.

    Both entry points honour [cfg.jobs] via {!Dut_engine.Parallel}:
    [run_to_channel] parallelises the Monte-Carlo trials inside the
    experiment, [run_all_to_channel] runs whole experiments concurrently
    while buffering per-experiment output, so the bytes written — table
    order and content — are identical for every jobs count. Only the
    ["# elapsed"]/["# total"] timing lines vary run to run; pass
    [~timings:false] to omit them when diffing outputs. All timings are
    taken on the monotonised {!Dut_obs.Span.now_ns} clock, never on the
    raw wall clock.

    {b Failure isolation.} An experiment that raises does not abort the
    run: its slot renders an [# ERROR] block (the exception and —
    unless [~timings:false] — elapsed time), the other experiments'
    output is byte-identical to a clean run's, and the failure is
    reported as a {!status} in the returned {!outcome}s so callers can
    exit non-zero. The backtrace rides in the {!Failed} status, never
    in the output, so the bytes depend neither on the domain that ran
    the experiment nor on source line numbers. A cooperative [?timeout_s] budget
    ({!Dut_engine.Deadline}) surfaces through the same path.

    {b Checkpoint/resume.} With [?checkpoint_dir], [run_all_to_channel]
    stores each successful experiment as one {!Dut_obs.Store} entry as
    soon as it completes, from whichever domain ran it. The key text is
    the experiment id plus every config field the bytes depend on —
    profile, seed, trials, [csv], [timings], adaptive and warm-start,
    but not jobs, since outputs are jobs-invariant — and the store adds
    the code identity. The payload is the elapsed seconds plus the
    rendered bytes. With [~resume:true] it replays matching entries
    byte-identically (marked [resumed]) and executes only missing,
    failed or stale ones. Failed experiments are never stored, and
    under one key the first copy is kept (with [~timings:true], its
    elapsed lines are the first run's).

    {b Interruption.} {!with_sigint_guard} converts the first
    SIGINT/SIGTERM into a flag ([a second one force-exits 130]):
    experiments already running complete and print, experiments not yet
    started render an [# INTERRUPTED] marker and report
    {!Interrupted} — so the caller still gets ordered partial output
    and a full report to put in a valid partial manifest.

    Both emit {!Dut_obs} spans — one [experiment] span per experiment
    (with a nested [experiment.run] span around the computation and a
    [table] span per rendered table), and [run_all_to_channel] a
    [run-all] root — when a trace sink is open, and nothing otherwise.
    Telemetry never writes to the channel: output bytes are identical
    with and without tracing. *)

type status =
  | Ok  (** ran to completion (or replayed from a checkpoint) *)
  | Failed of { exn : string; backtrace : string }
      (** raised; [exn] is rendered as an [# ERROR] block in its slot,
          [backtrace] (empty unless recording is on) only here *)
  | Interrupted  (** never started: SIGINT/SIGTERM arrived first *)

type outcome = {
  id : string;
  seconds : float;
      (** elapsed on the monotonic clock; the checkpointed value when
          [resumed] *)
  status : status;
  resumed : bool;  (** replayed from a checkpoint, not executed *)
}

type report = {
  wall_seconds : float;  (** duration of the whole run *)
  cpu_seconds : float;
      (** per-experiment elapsed summed across concurrent tasks,
          excluding replayed checkpoints; exceeds [wall_seconds] when
          [cfg.jobs > 1] *)
  experiments : outcome list;  (** in registry order *)
}

val failed : outcome -> bool
(** Whether the outcome is a {!Failed}. *)

val run_to_channel :
  ?csv:bool ->
  ?timings:bool ->
  ?timeout_s:float ->
  Config.t ->
  Exp.t ->
  out_channel ->
  outcome
(** Run one experiment, print its header, tables and (unless
    [timings:false]) elapsed time to the channel. A raising experiment
    prints an [# ERROR] block instead of tables and returns a
    {!Failed} outcome rather than raising. *)

val run_all_to_channel :
  ?csv:bool ->
  ?timings:bool ->
  ?checkpoint_dir:string ->
  ?resume:bool ->
  ?timeout_s:float ->
  ?experiments:Exp.t list ->
  Config.t ->
  out_channel ->
  report
(** Run the whole registry, up to [cfg.jobs] experiments concurrently,
    printing in registry order, followed (unless [timings:false]) by a
    ["# total"] line reporting wall-clock and summed-CPU separately.
    [?checkpoint_dir] enables checkpointing (and, with [~resume:true],
    checkpoint replay); [?timeout_s] arms the per-experiment
    watchdog. Never raises on experiment failure — inspect the
    returned outcomes. [?experiments] overrides the registry — the
    failure-path tests drive the full machinery over a small synthetic
    set. *)

(** {2 Interruption} *)

val interrupted : unit -> bool
(** Whether an interrupt has been requested (signal or
    {!request_interrupt}). *)

val request_interrupt : unit -> unit
(** Ask in-progress [run_all_to_channel] calls to stop starting new
    experiments. What the signal handler installed by
    {!with_sigint_guard} calls; exposed for tests and embedders. *)

val with_sigint_guard : (unit -> 'a) -> 'a
(** Run the thunk with SIGINT/SIGTERM converted into
    {!request_interrupt} (first signal graceful, second force-exits
    130). Clears the flag on entry and exit and restores the previous
    signal dispositions; on platforms without these signals it is a
    plain call. *)
