(** Probability mass functions on a finite universe {0, …, n−1}.

    The basic object every tester, protocol and experiment manipulates.
    Values are validated at construction (non-negative, summing to 1 up to
    a small tolerance) and then treated as exact. *)

type t
(** A pmf; immutable once built. *)

val create : float array -> t
(** [create weights] validates and normalizes [weights] into a pmf.

    @raise Invalid_argument if the array is empty, has a negative entry,
    or sums to something further than 1e-6 from a positive number. *)

val create_exn_strict : float array -> t
(** Like {!create} but requires the weights to already sum to 1 within
    1e-9, with no renormalization — used where exactness matters (hard
    family construction).

    @raise Invalid_argument as {!create}, or if the sum is off. *)

val uniform : int -> t
(** The uniform distribution U_n.

    @raise Invalid_argument if [n <= 0]. *)

val point_mass : n:int -> int -> t
(** [point_mass ~n i] puts all mass on element [i]. *)

val size : t -> int
(** Universe size n. *)

val prob : t -> int -> float
(** [prob t i] is the mass of element [i].

    @raise Invalid_argument if [i] is out of range. *)

val to_array : t -> float array
(** A fresh copy of the mass table. *)

val mix : float -> t -> t -> t
(** [mix a p q] is the mixture a·p + (1−a)·q.

    @raise Invalid_argument on size mismatch or a ∉ [0,1]. *)

val collision_prob : t -> float
(** ‖μ‖₂² = Σ_i μ(i)² — the probability two iid samples collide. Equals
    1/n exactly for the uniform distribution, and ≥ (1+ε²)/n for any
    distribution ε-far from uniform in ℓ2-matched families. *)

val product : t -> t -> t
(** [product p q] is the independent joint on a universe of size
    [size p * size q], with pair (a,b) at index a·(size q) + b. *)

val map_support : t -> (int -> int) -> n:int -> t
(** [map_support t f ~n] pushes the distribution forward through [f] into
    a universe of size [n] (mass of [i] is added to [f i]).

    @raise Invalid_argument if [f] maps outside [0, n). *)
