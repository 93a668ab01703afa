(** The query server's result cache: a bounded in-memory LRU front
    over the content-addressed file store {!Dut_obs.Store}.

    The key text is the query's canonical JSON ({!Query.canonical}),
    which names everything the answer depends on: kind, parameters,
    seed, trials and adaptive/warm-start. The store folds the code
    identity {!Dut_obs.Manifest.code} into every key on disk, so an
    entry written by other sources is a miss and a hit replays, byte
    for byte, what the current code computes.

    Two tiers:
    - an in-memory LRU front (bounded; [cache.evictions] counts
      overflow), which lives as long as the process and so never
      outlives its code, and
    - an optional on-disk tier under [dir]: {!Dut_obs.Store} entries,
      written once, shared safely by every shard of a fleet; a
      malformed or mismatched file reads as a miss.

    Lookups tally [cache.hits] / [cache.misses] and stores
    [cache.stores]; the disk tier adds [cache.store_races] and
    [cache.write_failures] (see {!Dut_obs.Store.store}). The front is
    {e not} thread-safe within a process: the server calls it only
    from the submitting domain (lookups before a batch is dispatched,
    stores after it joins). *)

type t

val default_dir : string
(** ["results/memo"]. *)

val create : ?capacity:int -> ?dir:string option -> unit -> t
(** [create ()] is a memory-only cache holding up to [capacity]
    (default 512) payloads. [~dir:(Some d)] adds the persistent tier
    under [d] (created on first store). *)

val find : t -> key:string -> string option
(** The payload stored under [key], from the LRU front if present, else
    from disk (re-promoting into the front). Tallies one [cache.hits]
    or [cache.misses]. *)

val store : t -> key:string -> string -> unit
(** Publish [payload] under [key] in both tiers. The disk tier is
    write-once ({!Dut_obs.Store.store}): a key another process already
    published keeps its file, and a write failure costs persistence,
    never an answer. *)

val entries : t -> int
(** Number of payloads in the in-memory front (tests). *)
