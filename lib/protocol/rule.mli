(** Referee decision rules (Section 2).

    Each of the k players sends a bit x_i ∈ {0,1} (1 = "accept"); the
    referee applies f : {0,1}^k → {0,1}. The paper's central question is
    how much the {e shape} of f costs:

    - {!And} — the local-decision rule: the network rejects as soon as one
      node raises an alarm (Theorem 1.2: expensive);
    - {!Reject_threshold} T — reject iff at least T nodes reject, i.e.
      f(x) = 1 exactly when Σ x_i ≥ k − T + 1 (Theorem 1.3; the paper
      writes the acceptance condition as Σ x_i ≥ k − t);
    - {!Majority} — a calibrated count cutoff, the shape of the optimal
      tester (Theorem 1.1).

    Every rule depends on the votes only through the number of ones, so
    each reduces to one precomputed cutoff ({!accept_min}). *)

type t =
  | And  (** accept iff every bit is 1 *)
  | Or  (** accept iff some bit is 1 *)
  | Reject_threshold of int
      (** [Reject_threshold t]: reject iff at least [t] zeros; accepts
          when t > number of players that rejected. [Reject_threshold 1]
          coincides with {!And}. *)
  | Accept_at_least of int
      (** accept iff at least that many ones (a count cutoff). *)
  | Majority  (** accept iff ones > k/2 *)

val apply : t -> bool array -> bool
(** [apply rule bits] — the referee's output; [true] = accept. [bits.(i)]
    is player i's vote, [true] = accept.

    @raise Invalid_argument on an empty vote vector, or a non-positive
    threshold. *)

val accept_min : t -> k:int -> int
(** [accept_min rule ~k] is the cutoff c such that, for [k] players,
    [apply rule bits = (count of ones >= c)]. The branchless-referee
    form: precompute once per round, then one integer compare. For
    {!Reject_threshold} the cutoff may be ≤ 0 (always accept).

    @raise Invalid_argument on [k <= 0], or a non-positive
    threshold/count (mirroring {!apply}). *)

val name : t -> string
(** Human-readable name for tables and logs. *)
