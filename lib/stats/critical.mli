(** Search for the critical value of a monotone resource parameter.

    The empirical analogue of "sample complexity": the smallest per-player
    sample count q at which a tester succeeds. The success predicate is
    assumed monotone in the parameter (all implemented testers can ignore
    extra samples, so more never hurts). The search brackets by doubling
    and then bisects, so finding the critical value costs logarithmically
    many predicate evaluations — each of which is typically a full
    Monte-Carlo power estimate.

    Every predicate evaluation tallies one [search.probes] on
    {!Dut_obs.Metrics} (and each two-probe certified guess of
    {!search_seeded} one [search.exact_hits]); the probe sequence is
    deterministic in the predicate's answers, so both totals are
    jobs-invariant. *)

val search : ?lo:int -> ?hi:int -> (int -> bool) -> int option
(** [search ~lo ~hi ok] is the least [v] in [lo..hi] with [ok v], assuming
    [ok] is monotone (false … false true … true); [None] if [ok hi] is
    false. Defaults: [lo = 1], [hi = 1 lsl 22]. Evaluates [ok] O(log)
    times via doubling + bisection.

    @raise Invalid_argument if [lo < 0] or [hi < lo]. *)

val search_seeded :
  ?lo:int -> ?hi:int -> guess:int -> (int -> bool) -> int option
(** [search_seeded ~guess ok] is {!search} warm-started at [guess]
    (clamped into [lo..hi]): if [ok guess] holds the search shrinks
    geometrically below it for a failing bracket, otherwise it grows
    geometrically above it — either way replacing the cold doubling
    phase from [lo]. Returns the same answer as {!search} for every
    monotone predicate; an accurate guess (e.g. the previous grid
    point's critical value scaled by the theory exponent) roughly
    halves the number of predicate evaluations, each of which is a
    full Monte-Carlo power estimate.

    @raise Invalid_argument if [lo < 0] or [hi < lo]. *)
