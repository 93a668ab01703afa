(** The resident query server behind [dut serve].

    A long-running loop over a Unix-domain socket speaking the JSONL
    codec of {!Query}. Concurrent requests — across clients and within
    one client's burst — are coalesced into batches and dispatched onto
    the shared {!Dut_engine} pool, so the whole batch evaluates with
    [jobs]-way parallelism while every response stays byte-identical to
    a sequential evaluation (each query derives all randomness from its
    own seed).

    Semantics, mirroring the batch runner's crash-safety layer:
    - {e failure isolation}: a request that fails to parse, names an
      unknown bound, or raises during evaluation gets an [error]
      response; every sibling request in the batch completes untouched.
      A request can never take down the server or the batch.
    - {e deadlines}: [deadline_s] arms a cooperative
      {!Dut_engine.Deadline} per request; an over-budget evaluation is
      cancelled at the next engine check point and answered with an
      [error] response.
    - {e backpressure}: at most [max_pending] requests are queued per
      batch cycle; overflow requests are answered immediately with an
      [error] response (tallied as [service.rejected]) instead of
      growing the queue without bound.
    - {e memoization}: with a {!Memo} cache attached, [ok] responses are
      stored under the query's canonical form (the store adds the code
      identity) and replayed byte-identically on the next ask
      ([cache.hits]/[cache.misses]).
    - {e graceful shutdown}: the loop runs under
      {!Dut_experiments.Runner.with_sigint_guard} — the first
      SIGINT/SIGTERM finishes the in-flight batch, flushes responses
      (10s grace), writes the final session summary and returns
      normally (the CLI exits 0); a second signal force-exits.

    The connection loop waits on poll(2) (see {!Poll}), so the number
    of concurrent clients is bounded by the fd ulimit, not
    FD_SETSIZE, and each wake-up drains the whole accept queue. Each
    client is a {!Conn}: one read per ready connection per tick, and
    replies queued and flushed without blocking, so a client that
    stops reading never stalls the others. A peer that half-closes
    after its last byte still gets every answer: the unterminated tail
    of its input is a request, and the connection is reaped once its
    replies are written.

    The session summary ([summary_path], schema [dut-service/4]) is
    rewritten atomically after every batch, so a live server can be
    inspected with [dut obs-report --manifest] at any time. Beyond the
    session counters it carries [code] (the binary's
    {!Dut_obs.Manifest.code}, new in /4 in place of [git]), [qps]
    (requests over uptime),
    [latency_ns] (the {!Dut_obs.Histogram.summary_json} of
    [service.request_ns]: p50/p90/p95/p99/max per-request latency),
    [cache_hit_ratio], and [last_batch] — the same quartet computed for
    the most recent batch alone, from the histogram delta across it.
    Spans ([service.batch], [service.request]) go to the
    {!Dut_obs.Span} sink when one is open; counters
    ([service.requests], [service.batches], [service.errors],
    [service.rejected], [cache.*]) and the latency histograms always
    tally. *)

type config = {
  socket : string;  (** path of the Unix-domain socket to bind *)
  jobs : int;  (** engine parallelism for batch evaluation *)
  cache : Memo.t option;
  deadline_s : float option;  (** per-request cooperative budget *)
  max_pending : int;  (** backpressure cap per batch cycle *)
  summary_path : string;  (** where the session summary is published *)
}

val default_socket : string
(** ["results/dut.sock"]. *)

val default_summary_path : string
(** ["results/service_manifest.json"]. *)

val handle_batch :
  ?cache:Memo.t -> ?deadline_s:float -> jobs:int -> Query.request array -> string array
(** Evaluate one batch: response lines in request order, one per
    request, never raising. Exposed for tests; {!serve} is this in a
    socket loop. *)

val prepare_socket : string -> unit
(** Make [path] bindable: a missing path is fine, a stale socket file
    (connect refused) is unlinked, anything else refuses.

    @raise Failure if a live server already answers on [path] (the
    connect probe succeeds) or [path] exists and is not a socket —
    starting anyway would steal the path from the running server. *)

val bind_listener : string -> Unix.file_descr
(** {!prepare_socket}, then bind, listen and set non-blocking: the
    accept loop (here and in the {!Shard} router) drains the whole
    queue per poll wake-up. *)

val serve : ?shard:int -> config -> unit
(** Bind the socket (replacing only a {e stale} file, per
    {!prepare_socket}), loop until the first SIGINT/SIGTERM, then drain
    and return. Prints one ["serving on <socket>"] line to stderr when
    ready. [shard] stamps the summary with this worker's index when the
    server runs as part of a {!Shard} fleet.

    @raise Failure if a live server already owns the socket.
    @raise Unix.Unix_error if the socket cannot be bound. *)
