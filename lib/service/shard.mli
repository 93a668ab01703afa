(** Consistent-hash sharding of the query service across worker
    processes — [dut serve --shards N].

    The routing rule is a pure function of the query's canonical bytes
    ({!Query.canonical}): an MD5-derived point on a 64-vnode-per-shard
    hash ring picks the worker, so the same query always lands on the
    same shard (across runs, shard processes, and client
    interleavings), and growing the fleet from N to N+1 shards remaps
    only ~1/(N+1) of the keyspace. Because the memo key is the
    canonical bytes (the store adds the code identity), shards agree
    by construction and can share one on-disk store — the write-once
    discipline of {!Dut_obs.Store} makes the concurrent stores safe.

    The fleet is one router process (the one that ran [dut serve]) plus
    N forked workers, each a complete {!Server.serve} loop on
    [socket ^ ".shardI"], publishing its own [dut-service/4] summary at
    [summary_path ^ ".shardI"]. The router owns the public socket,
    assigns fleet-unique ids to forwarded requests and splices the
    client's id back into each response — byte-identical to what a
    single server would have sent, which is what keeps the cold/warm
    replay contract shard-count-invariant. Lines that fail to parse
    are answered at the router with the same error bytes the single
    server produces.

    {e Failure semantics}: a worker dying mid-batch fails exactly the
    requests routed to it — in flight at the time, or arriving while it
    is down — with an [error] response naming the shard
    ([shard.dead_rejects]); every other shard keeps answering. The
    router never restarts workers.

    {e Shutdown}: SIGINT/SIGTERM stops the accept loop, forwards the
    signal to every worker, relays the drained responses (10s grace),
    fills anything still unanswered with an [error] response, reaps the
    workers and writes the final fleet summary (schema
    [dut-service-fleet/2]: the [code] identity, router counters,
    per-worker status, and an aggregate over the worker summaries with
    the latency histograms merged exactly from their
    [latency_buckets]). *)

val shard_of_key : shards:int -> string -> int
(** Ring lookup for a canonical key: which of [shards] workers owns it.
    Deterministic across processes and runs. *)

val shard_summary : string -> int -> string
(** Worker [i]'s summary path. *)

val route_batch :
  ?caches:Memo.t option array ->
  ?deadline_s:float ->
  jobs:int ->
  shards:int ->
  Query.request array ->
  string array
(** The in-process model of the fleet, and the spec the socket router
    implements: partition requests over the ring, evaluate each
    partition with {!Server.handle_batch} (worker [i] drawing on
    [caches.(i)]), answer unparseable requests locally, and reassemble
    the responses in request order. For any [shards] the result is
    byte-identical to [Server.handle_batch] over the whole batch —
    the property the determinism tests pin. *)

val serve_fleet : shards:int -> Server.config -> unit
(** Fork [shards] workers and run the router until SIGINT/SIGTERM.
    [shards = 1] degenerates to plain {!Server.serve} — no fork, no
    router, exactly the PR-5 server.

    @raise Failure if the public socket is owned by a live server or a
    worker fails to come up (spawned workers are reaped first). *)
