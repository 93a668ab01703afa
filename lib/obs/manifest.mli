(** Run manifests: one JSON file per run recording what was run, at
    what cost, under which code — and whether each experiment actually
    finished.

    Schema ([dut-manifest/4]): [command], [status] (the run as a whole:
    ["ok"] | ["failed"] | ["interrupted"], interruption dominating
    failure), [profile], [seed], [jobs] (the {e effective} parallelism
    after the {!Dut_engine.Pool.effective_jobs} clamp) plus
    [jobs_requested] (present only when the clamp changed the request),
    [adaptive], [warm_start], [code] (the {!code} identity of the
    binary; new in /4, in place of /3's [git]),
    [created_unix], [wall_seconds], [cpu_seconds] (summed
    per-experiment time over the work {e executed this run} — exceeds
    wall time under [--jobs]), [experiments] (array of
    [{id, seconds, status, resumed, error?}] in registry order; [error]
    only on failed entries), [counters] (the final {!Metrics.snapshot};
    counter totals for the jobs-invariant metrics are bit-equal across
    [--jobs] values, see [doc/observability.md]) and [histograms] (one
    {!Histogram.summary_json} object per non-empty registered histogram
    — [pool.task_ns], [memo.load_ns], … — merged across domains;
    new in /3).

    A run cut short by SIGINT/SIGTERM still writes a {e valid} partial
    manifest: completed experiments carry [status "ok"], never-started
    ones [status "interrupted"], and the top-level [status] says
    ["interrupted"].

    The manifest is out-of-band telemetry: it is written next to the
    run ([results/manifest.json] by default) via {!write_atomic} — a
    crash can never leave a truncated file — never to stdout, and a
    failure to write it degrades to a one-line stderr warning rather
    than failing the run. *)

val default_path : string
(** ["results/manifest.json"]. *)

val code : string
(** The code identity of this binary: the MD5 of the sources under
    [lib/] and [bin/] it was built from, computed by a build rule (see
    [lib/obs/dune]), followed by [+ocaml-] and [Sys.ocaml_version]. Two
    checkouts of one tree share it; any edit to a source changes it.
    {!Store} folds it into every key, so no stored answer outlives the
    code that computed it. *)

type experiment = {
  id : string;
  seconds : float;  (** elapsed (monotonic clock); the checkpointed
                        value for resumed entries *)
  status : string;  (** ["ok"] | ["failed"] | ["interrupted"] *)
  resumed : bool;  (** replayed from a checkpoint, not executed *)
  error : string option;  (** exception text for failed entries *)
}

val make :
  command:string ->
  profile:string ->
  seed:int ->
  jobs:int ->
  jobs_requested:int ->
  adaptive:bool ->
  warm_start:bool ->
  wall_seconds:float ->
  cpu_seconds:float ->
  experiments:experiment list ->
  Json.t
(** Assemble the manifest object, stamping [code], [created_unix], the
    derived run [status] and the current counter snapshot. [jobs] is
    the effective parallelism; [jobs_requested] the pre-clamp request
    (emitted only when the two differ). *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents; an existing directory
    is left as it is. Never raises: a directory that cannot be made
    surfaces as the [Sys_error] of the write that needed it. *)

val write_atomic : path:string -> string -> unit
(** Write [content] to a temp file in [path]'s directory (created if
    needed) and [Sys.rename] it over [path]: readers observe either the
    old bytes or the new, never a truncated mix. Used for the manifest
    and the service summaries.

    @raise Sys_error when the directory or file cannot be written. *)

val write : ?path:string -> Json.t -> unit
(** Pretty-print the manifest atomically to [path] (default
    {!default_path}), creating the parent directory if needed. On
    failure prints a warning to stderr and returns. *)
