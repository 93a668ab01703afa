(** Critical-value sweeps: the least resource at which a tester
    succeeds, measured at each point of a grid.

    This is the one module that reads {!Config.t}'s [warm_start]: with
    it off, every search starts cold and T10's grid runs in ascending
    order, as the fixed-budget records of earlier revisions did. *)

val critical :
  Config.t ->
  Dut_prng.Rng.t ->
  ?level:float ->
  ell:int ->
  eps:float ->
  ?lo:int ->
  ?hi:int ->
  ?guess:int ->
  (int -> Dut_core.Evaluate.tester) ->
  int option
(** {!Dut_core.Evaluate.critical_q} under the configuration's trials,
    level (unless [?level] is given) and adaptivity, on a fresh
    [Rng.split] of the stream. The [?guess] warm start is dropped
    unless [warm_start] is on. *)

val grid :
  ?descending:bool ->
  Config.t ->
  guess:('x -> int -> 'x -> int) ->
  ('x -> int option -> int option) ->
  'x list ->
  ('x * int option) list
(** [grid cfg ~guess search xs] runs [search x g] at each grid point in
    order, where [g] is [Some (guess x0 q0 x)] after the last point
    [x0] whose search found a value [q0], [None] before one has.
    Results come back in the order of [xs].

    With [~descending:true] and warm starts on, the points are searched
    in reverse order: for a grid whose critical value shrinks along
    [xs], the one cold search then runs at the cheapest point. *)

val round : ?least:int -> float -> int
(** [round ~least f] is [max least (int_of_float (Float.round f))]
    ([least] defaults to 1): a scaled critical value as a guess. *)

val points : ('x -> float) -> ('x * int option) list -> (float * float) array
(** The points whose search found a value, as (abscissa, value). *)

val exponent : ('x -> float) -> ('x * int option) list -> float
(** The fitted power-law exponent of {!points}; NaN under two points. *)
