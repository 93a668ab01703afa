(** Deterministic chunked ingestion of an unbounded sample stream.

    [Ingest] turns a stream of samples into a stream of per-chunk
    {!Sketch.t}s: every [chunk] consecutive samples become one sketch,
    emitted to the [on_chunk] callback {e in chunk order} as soon as the
    chunk fills. Chunk boundaries depend only on [chunk] — never on
    [jobs] or on how the samples were batched into {!feed} calls — so
    the emitted sketch sequence is bit-identical for every jobs count:
    the streaming analogue of the engine's determinism contract, and
    the ingestion path the anytime referee consumes.

    {b Dispatch.} Every config is sketched inline, on the feeding
    domain; [jobs] changes nothing. A chunk costs O(chunk) (a log of
    bucket indices for a short [Hist] chunk, O(chunk · K) for [Ams]),
    and on 2 vCPUs a trip per chunk through the engine's pool was slower
    than inline for every config measured: exact and hashed [Hist], and
    [Ams] with K = 32, 256 and 1024 counters (doc/stream.md has the
    figures).

    {b Lifetime.} One chunk sketch is reused for every chunk: the sketch
    handed to [on_chunk] is valid only during the callback, and is
    cleared and refilled for the next chunk. A consumer that keeps a
    chunk copies it ({!Sketch.copy}); {!Anytime.observe} merges it and
    keeps its own copies.

    {b Memory.} [chunk] samples of buffer plus that one sketch
    ({!Sketch.words_used} words), made at the first emission — never in
    {!create} — regardless of stream length. *)

type t

val create : ?jobs:int -> chunk:int -> on_chunk:(Sketch.t -> unit) -> Sketch.config -> t
(** [create ~chunk ~on_chunk cfg] ingests into sketches configured by
    [cfg], emitting one sketch per [chunk] samples. [jobs] is checked
    but, with ingestion inline, changes nothing.

    @raise Invalid_argument if [chunk < 1] or [jobs < 1]. *)

val feed : t -> int -> unit
(** Ingest one sample; the sample that completes a chunk emits it.

    @raise Invalid_argument (from {!Sketch.add_range}) when the chunk
    it completes holds a sample outside [0 .. n-1]. *)

val feed_array : t -> int array -> unit
(** Ingest a batch; equivalent to feeding each element in order. *)

val flush : t -> unit
(** Emit the final partial chunk (if any) as a short sketch. Call at
    end of stream; feeding after a partial-chunk flush would misalign
    chunk boundaries, so {!feed} afterwards raises [Invalid_argument].
    Idempotent. *)

val samples_fed : t -> int
(** Samples ingested so far (including buffered, not-yet-emitted
    ones). *)

val chunks_emitted : t -> int
