(** SplitMix64 pseudo-random number generator (Steele, Lea & Flood 2014).

    A tiny, fast, splittable generator with a 64-bit state. It passes
    BigCrush when used as a stream and, crucially for this project, supports
    {e splitting}: deriving statistically independent child generators from
    a parent. We use it both as a stand-alone generator and as the seeding
    mechanism for {!Dut_prng.Xoshiro}. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] makes a fresh generator. Distinct seeds give streams that
    are independent for all practical purposes. *)

val copy : t -> t
(** [copy t] is a generator with the same state that evolves independently
    from [t] afterwards. *)

val next_int64 : t -> int64
(** [next_int64 t] advances the state and returns 64 uniformly random
    bits. *)

val mix : int64 -> int64
(** [mix s] is the SplitMix64 output function (variant "mix13" of
    Stafford). A high-quality 64-bit finalizer; also useful as a hash. *)

val split : t -> t
(** [split t] advances [t] and returns a child generator whose stream is
    independent of the parent's subsequent outputs. *)

(** {1 Allocation-free pair kernel}

    The 64-bit state is stored as two native-int 32-bit halves, and the
    hot-path entry points below neither allocate nor return boxed
    values: a step writes its mixed output into the generator record,
    and the caller reads it back through {!out_hi}/{!out_lo}. The
    streams are bit-identical to {!next_int64} (which is implemented on
    this kernel); the pure {!mix} function above remains the executable
    specification the kernel is tested against. *)

val next_pair : t -> unit
(** [next_pair t] advances the state and mixes the output into the
    [out_hi]/[out_lo] fields — the allocation-free equivalent of
    {!next_int64}. *)

val out_hi : t -> int
(** Bits 32..63 of the last output produced by {!next_pair} or
    {!mix_pair}, in [0, 2{^32}). *)

val out_lo : t -> int
(** Bits 0..31 of the last output, in [0, 2{^32}). *)

val set_state : t -> hi:int -> lo:int -> unit
(** [set_state t ~hi ~lo] re-seeds [t] in place with the 64-bit state
    [hi * 2{^32} + lo]; both halves must be in [0, 2{^32}). Used to
    recycle one scratch generator across in-place splits. *)

val mix_pair : t -> hi:int -> lo:int -> unit
(** [mix_pair t ~hi ~lo] applies the mix13 finalizer to the given pair
    (the pair-domain {!mix}) without touching [t]'s state; the result
    lands in [out_hi]/[out_lo]. *)
