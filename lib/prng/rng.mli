(** The project-wide random source.

    xoshiro256++ (Blackman & Vigna 2019) for draws, seeded and split
    through SplitMix64 (Steele, Lea & Flood 2014), plus the sampling
    primitives the simulators need: bounded integers, floats, Bernoulli /
    binomial / geometric draws, shuffles — and {e splitting}, which gives
    every player in a distributed protocol its own independent stream so
    that whole protocol executions are reproducible from one root seed.

    The draws, in-place splits and hashes below allocate nothing: the
    64-bit arithmetic runs unboxed inside this module, and only
    {!bits64} and {!mix} return an [int64]. *)

type t
(** Mutable random source. *)

val create : int -> t
(** [create seed] builds a source from an integer seed. Equal seeds give
    identical streams. *)

val split : t -> t
(** [split t] derives a child source. The child's stream is independent of
    the parent's subsequent draws: used to give each player in a protocol a
    private coin sequence. *)

val split_n : t -> int -> t array
(** [split_n t k] is [k] children, one per player. *)

val split_into : t -> t -> unit
(** [split_into t child] re-seeds [child] in place with exactly the
    state [split t] would return, advancing [t]'s splitter by the same
    single word — the allocation-free split for hot loops that recycle
    one child record per trial. Any previous state of [child] is
    overwritten. *)

val borrow_child : unit -> t
(** [borrow_child ()] takes a scratch source from a per-domain free
    list (or makes one). Its state is unspecified: callers must
    {!split_into} it before drawing. Pair with {!release_child}; the
    borrow is per-domain, so a source must never cross domains or
    outlive the borrowing scope. *)

val release_child : t -> unit
(** [release_child r] returns a source obtained from {!borrow_child} to
    the domain-local free list for reuse. *)

val bits64 : t -> int64
(** 64 uniformly random bits: the next xoshiro256++ output. Boxed;
    hot paths use {!bits53}, {!int} or {!bool}. *)

val bits53 : t -> int
(** The top 53 bits of a 64-bit draw: the integer lattice behind
    {!unit_float}, which equals [float_of_int (bits53 t) *. 2.{^-53}].
    Exposed so samplers can compare in the integer/scaled domain
    without a division or boxing. One call consumes exactly one 64-bit
    draw. *)

val int : t -> int -> int
(** [int t bound] is uniform on [0 .. bound-1], unbiased (power-of-two
    mask + rejection).

    @raise Invalid_argument if [bound <= 0]. *)

val mask_for : int -> int
(** [mask_for bound] is the rejection mask behind {!int}: the smallest
    [2{^k} - 1] (k ≥ 1) covering [bound - 1]. Callers that draw many
    values below one bound hoist it and call {!masked_int}. *)

val masked_int : t -> mask:int -> bound:int -> int
(** [masked_int t ~mask:(mask_for bound) ~bound] is exactly [int t
    bound] — the same rejection loop over the same draws — with the
    mask computed once by the caller. [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform on [lo .. hi] inclusive.

    @raise Invalid_argument if [hi < lo]. *)

val ints_into : t -> bound:int -> int array -> unit
(** [ints_into t ~bound buf] fills [buf] with independent draws of
    [int t bound], bit-identical to that scalar loop but with the
    rejection mask hoisted out of it and no per-element closure.

    @raise Invalid_argument if [bound <= 0]. *)

val unit_floats_into : t -> float array -> unit
(** [unit_floats_into t buf] fills [buf] with independent {!unit_float}
    draws, bit-identical to the scalar loop; the flat float array
    stores unboxed. *)

val float : t -> float -> float
(** [float t bound] is uniform on [0, bound) with 53 random mantissa
    bits. *)

val unit_float : t -> float
(** Uniform on [0, 1). *)

val bool : t -> bool
(** A fair coin. *)

val sign : t -> int
(** Uniform on {-1, +1}: a Rademacher draw, used for perturbation
    vectors z. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to [0,1]). *)

val binomial : t -> int -> float -> int
(** [binomial t n p] counts successes among [n] independent [bernoulli p]
    trials. Uses inversion for small [n*p] and a waiting-time method
    otherwise; exact in distribution either way. *)

val poisson : t -> float -> int
(** [poisson t lambda] draws from Poisson(λ): Knuth's product method for
    λ ≤ 30, normal approximation with continuity correction (clamped at
    0) beyond. Poissonized sampling makes per-element counts independent
    — the classical device of the distribution-testing literature.

    @raise Invalid_argument if λ < 0. *)

val geometric : t -> float -> int
(** [geometric t p] is the number of failures before the first success of a
    Bernoulli([p]) sequence (support 0, 1, 2, ...).

    @raise Invalid_argument if [p <= 0. || p > 1.]. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher–Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniformly random element.

    @raise Invalid_argument on an empty array. *)

val rademacher_vector : t -> int -> int array
(** [rademacher_vector t m] is an array of [m] independent uniform
    {-1,+1} entries — the perturbation vector z of the hard family. *)

val rademacher_vector_into : t -> int array -> unit
(** [rademacher_vector_into t z] overwrites [z] with independent
    uniform {-1,+1} entries, drawing exactly the stream
    [rademacher_vector t (Array.length z)] would — the allocation-free
    variant for scratch buffers on the Monte-Carlo hot path. *)

(** {1 Hashing} *)

val mix : int64 -> int64
(** [mix z] is SplitMix64's output function, Stafford's "mix13"
    finalizer: a bijective 64-bit hash, for cold paths. *)

val hash_bucket : int64 -> int -> int -> int
(** [hash_bucket salt x m] is [mix (salt lxor x)], read as an unsigned
    64-bit integer, modulo [m] ([m > 0]): the salted bucket of sample
    [x] among [m], without allocating. *)

val hash_sign : int64 -> int -> int -> int
(** [hash_sign salt k x] is [+1] or [-1] by the low bit (even: [+1]) of
    [mix ((salt + (k + 1) * 0x9E3779B97F4A7C15) lxor x)]: the [k]-th
    salted ±1 hash of sample [x], without allocating. *)
