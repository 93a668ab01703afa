(** Points and index sets of the Boolean cube {-1,1}^b.

    A point of the cube is encoded as an [int] bitmask over [b] bits with
    the convention that bit [i] set means coordinate [i] equals [-1] and
    bit [i] clear means coordinate [i] equals [+1]. With this convention
    the character χ_S(x) is simply the parity of [x land s] (see
    {!Cube.chi}), which makes the fast Walsh–Hadamard transform index
    arithmetic line up with no sign bookkeeping.

    Index subsets S ⊆ {0..b-1} are encoded the same way, as bitmasks. *)

val coord : int -> int -> int
(** [coord x i] is the i-th ±1 coordinate of point [x]: [-1] if bit [i] of
    [x] is set, [+1] otherwise. *)

val of_signs : int array -> int
(** [of_signs signs] encodes an array of ±1 coordinates as a point.

    @raise Invalid_argument if an entry is neither 1 nor -1. *)

val to_signs : dim:int -> int -> int array
(** [to_signs ~dim x] decodes point [x] into its [dim] ±1 coordinates. *)

val popcount : int -> int
(** Number of set bits — |S| for an index set, or the number of [-1]
    coordinates of a point. *)

val chi : int -> int -> int
(** [chi s x] is the character χ_S(x) = ∏_{i∈S} x_i ∈ {-1,+1}: [+1] when
    [x land s] has even parity, [-1] when odd. *)

val iter_points : dim:int -> (int -> unit) -> unit
(** [iter_points ~dim f] applies [f] to every point of {-1,1}^dim. *)

val iter_subsets_of_size : dim:int -> size:int -> (int -> unit) -> unit
(** [iter_subsets_of_size ~dim ~size f] applies [f] to every bitmask with
    exactly [size] bits among the low [dim], in increasing numeric order
    (Gosper's hack). [size = 0] yields only the empty set. *)

val subsets_of_size : dim:int -> size:int -> int list
(** Materialized version of {!iter_subsets_of_size}. *)

val binomial : int -> int -> float
(** [binomial n k] is the binomial coefficient C(n,k) as a float (exact for
    all values used in this project). Zero when [k < 0 || k > n]. *)

val double_factorial : int -> float
(** [double_factorial n] is n!! = n·(n−2)·(n−4)···, with
    [double_factorial 0 = double_factorial (-1) = 1.]. *)
