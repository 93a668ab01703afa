(** The simultaneous-message network of Section 2.

    One round: each of k players privately draws q iid samples from the
    unknown distribution and sends a message to the referee, who outputs
    accept/reject. Players get independent RNG streams split from the
    round's root stream in index order, so a whole round is a
    deterministic function of (root seed, distribution, player logic,
    referee) — runs are exactly reproducible and embarrassingly
    parallel. Every round here is a left fold of the messages in player
    order; no k-length message vector is materialised. *)

type source = Dut_prng.Rng.t -> int
(** The unknown distribution, as a sampling oracle: one draw per call. *)

type 'm messenger = index:int -> Dut_prng.Rng.t -> int array -> 'm
(** A player's local algorithm: given its index, private coins and its
    sample tuple, the message it sends. The sample tuple and the coins
    are per-domain scratch values valid only for the duration of the
    call — the message must not alias them. *)

type player = bool messenger
(** A one-bit player: vote [true] = accept. *)

val round_fold :
  rng:Dut_prng.Rng.t ->
  source:source ->
  k:int ->
  q:int ->
  messenger:'m messenger ->
  init:'a ->
  f:('a -> 'm -> 'a) ->
  'a
(** Run one round with [k] players of [q] samples each: message i is
    folded into the accumulator as soon as player i sends it. Player i
    draws from the i-th stream split from [rng] (the stream
    [Rng.split] would return), re-seeded in place into one scratch
    child, into one borrowed q-word buffer: no per-player tuple, coins
    or message vector is allocated.

    @raise Invalid_argument if [k <= 0] or [q < 0]. *)

val round_accept :
  rng:Dut_prng.Rng.t ->
  source:source ->
  k:int ->
  q:int ->
  player:player ->
  rule:Rule.t ->
  bool
(** One-bit round under a referee rule: {!round_fold} counting accept
    votes, compared with {!Rule.accept_min}.

    @raise Invalid_argument if [k <= 0] or [q < 0]. *)

val round_rates :
  rng:Dut_prng.Rng.t ->
  source:source ->
  qs:int array ->
  messenger:'m messenger ->
  init:'a ->
  f:('a -> 'm -> 'a) ->
  'a
(** Asymmetric-cost variant of {!round_fold} (Section 6.2): player i
    draws [qs.(i)] samples, on the same per-player streams.

    @raise Invalid_argument if [qs] is empty or holds a negative
    count. *)

val of_sampler : Dut_dist.Sampler.t -> source
(** View a prepared alias sampler as a source. *)

val of_paninski : Dut_dist.Paninski.t -> source
(** View a hard-family member as a source (O(1) direct draws). *)

val uniform_source : n:int -> source
(** The null hypothesis U_n as a source. *)
