(** Anytime-valid uniformity verdicts over growing and sliding windows.

    The referee consumes the per-chunk sketches emitted by {!Ingest}
    (already merged across players, or per player — sketches merge
    freely) and emits a verdict at every checkpoint: is the stream seen
    so far (growing window) or the last [w] chunks of it (sliding
    window) consistent with the uniform distribution?

    {b The eps-spending rule.} Checkpoint [j] is granted a failure
    budget α_j = α · 6/(π²·j²), so Σ_j α_j ≤ α: by a Chebyshev bound on
    the collision statistic, the probability that a truly uniform
    stream is {e ever} rejected — at any checkpoint, no matter how long
    the stream runs — is at most α. A rejection is therefore
    {e anytime-valid}: the referee may stop at the first rejection
    without multiple-testing inflation. The rejection threshold at
    checkpoint [j] is

    [max (gap/2) (null_sd / sqrt α_j)]

    on the zero-centered {!Sketch.excess} statistic — never below the
    batch midpoint cutoff, widened while the spent confidence demands
    it.

    {b Determinism.} Verdicts are pure integer/float arithmetic on the
    sketch state; with the same chunk sequence they are bit-identical
    for every jobs count. {b Final-verdict contract:} {!final} applies
    the batch midpoint rule to the full cumulative sketch, so on a
    fully-consumed stream with an exact sketch it equals the batch
    collision tester's verdict on the same samples, bit for bit. *)

type window =
  | Growing  (** every checkpoint judges the whole prefix *)
  | Sliding of int  (** judge the last [w] chunks only *)

val window_to_string : window -> string

type verdict = {
  index : int;  (** 1-based checkpoint number ([0] for {!final}) *)
  samples_seen : int;  (** stream samples consumed at emission *)
  window_samples : int;  (** samples inside the judged window *)
  stat : float;
      (** decision statistic of the window sketch: the zero-centered
          {!Sketch.excess} at checkpoints; {!Sketch.decision_stat} for
          {!final} *)
  threshold : float;  (** rejection threshold in force *)
  reject : bool;
  alpha_spent : float;  (** cumulative α spent through this checkpoint *)
}

type t

val create :
  ?window:window -> ?alpha:float -> ?every:int -> eps:float -> Sketch.config -> t
(** [create ~eps cfg] builds a referee for ε-far-ness testing.
    [window] defaults to [Growing]; [alpha] (total anytime false-reject
    budget) to [0.05]; [every] (chunks between checkpoints) to [1].

    @raise Invalid_argument if [eps] ∉ (0,1\], [alpha] ∉ (0,1),
    [every < 1], or [Sliding w] with [w < 1]. *)

val observe : t -> Sketch.t -> verdict option
(** Feed the next chunk sketch; [Some v] when this chunk completes a
    checkpoint (tallied as [stream.verdicts_emitted]). Rejections are
    sticky for {!rejected} but observation may continue — a sliding
    window can legitimately report recovery, and the caller decides
    whether to stop at the first rejection.

    The chunk is merged into the cumulative sketch in place and is not
    retained: a sliding window keeps its own copy of each of its [w]
    chunks, and a running window sketch that gains the new chunk and
    {!Sketch.subtract}s the evicted one. So the caller may reuse the
    chunk sketch as soon as [observe] returns (as {!Ingest} does), and
    a checkpoint costs O(chunk) — O(1) more for an exact sketch — not
    O(buckets · w). *)

val rejected : t -> verdict option
(** The first rejecting checkpoint verdict, if any — the anytime-valid
    stopping decision. *)

val samples_seen : t -> int

val cumulative : t -> Sketch.t
(** The merged sketch of everything observed (maintained in both window
    modes). This is the referee's live sketch, not a snapshot: the next
    {!observe} merges into it. {!Sketch.copy} it to keep a state. *)

val window_sketch : t -> Sketch.t
(** The live sketch of the judged window: {!cumulative} when growing,
    the merge of the last [w] observed chunks when sliding. *)

val verdicts : t -> verdict list
(** Every checkpoint verdict emitted so far, in emission order. *)

val final : t -> verdict
(** The batch-rule verdict ([index = 0]) on the full cumulative sketch:
    [stat < Sketch.cutoff] accepts, exactly the batch collision
    tester's decision when the sketch is exact. Also tallied as
    [stream.verdicts_emitted]. *)
