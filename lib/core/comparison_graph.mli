(** Comparison-graph uniformity testers (Meir, arXiv:2012.01882).

    Every collision-style statistic in the zoo is a sum of edge
    indicators 1[X_i = X_j] over some graph on the q samples: the
    classic collision count is the clique, pair testers are a perfect
    matching, cross-player comparisons are a complete bipartite graph.
    This module makes the graph a value: build one from a family or an
    explicit edge set, compute its statistic, and reuse the exact
    null/far means and cutoff layer of {!Local_stat} — parameterized
    only by the graph's edge and triangle counts.

    Determinism and bit-compatibility:
    - The clique's statistic routes through
      {!Local_stat.collisions_bounded} (a scratch-histogram counting
      sort up to a 2{^16} universe, a sort beyond it), and its float
      edge/triangle counts use the same expressions as {!Local_stat}'s
      clique wrappers, so clique-graph verdicts are bit-identical to
      the hand-written testers' by construction.
    - Non-clique statistics are a branch-free walk over a flattened,
      sorted edge array — no allocation per evaluation.
    - [Random_regular] graphs are a pure function of (q, degree, seed):
      a circulant base mixed by a deterministic double-edge-swap walk. *)

type family =
  | Clique  (** All pairs: the classic collision statistic. *)
  | Matching
      (** Perfect matching on consecutive pairs (2i, 2i+1); an odd last
          sample is unmatched. *)
  | Bipartite
      (** Complete bipartite between the first floor(q/2) samples and
          the rest — the "between-players" comparison pattern. *)
  | Random_regular of { degree : int; seed : int }
      (** Deterministic random d-regular graph on the q samples.
          Requires 1 <= degree <= q-1 and q*degree even. *)
  | Explicit of (int * int) array
      (** Arbitrary simple edge set; endpoints in [0, q), no
          self-loops, no duplicates (checked). *)

type t
(** A comparison graph on q samples, with precomputed edge array and
    edge/triangle counts. *)

val build : q:int -> family -> t
(** Construct the graph for [q] samples.

    @raise Invalid_argument on a negative [q], an infeasible
    [Random_regular] degree, or an invalid [Explicit] edge set. *)

val family_name : family -> string
(** Short stable name: ["clique"], ["matching"], ["bipartite"],
    ["regular<d>"], ["explicit"]. *)

val q : t -> int

val edge_count : t -> int

val triangle_count : t -> int

val edges : t -> (int * int) array
(** The edge set, sorted, each as (u, v) with u < v. For the clique
    this materializes all C(q,2) pairs — meant for tests and small q. *)

val name : t -> string
(** {!family_name} of the graph's family. *)

val statistic : n:int -> t -> int array -> int
(** Number of edges (i, j) with samples.(i) = samples.(j). The clique
    delegates to {!Local_stat.collisions_bounded}; other families walk
    the edge array.

    @raise Invalid_argument if the sample array's length is not [q t]. *)

(** {2 Cutoffs}

    Thin graph-parameterized wrappers over the edge core in
    {!Local_stat}; see there for the model ([edges]/n means, Poisson
    then Cornish–Fisher alarm tails with the triangle skew term) and
    the strict-below comparison convention. *)

val null_mean : n:int -> t -> float

val far_mean : n:int -> t -> eps:float -> float

val midpoint_cutoff : n:int -> t -> eps:float -> float

val alarm_cutoff : n:int -> t -> false_alarm:float -> int

val vote_midpoint : n:int -> eps:float -> t -> int array -> bool
(** Accept vote: statistic strictly below {!midpoint_cutoff}
    ({!Local_stat.accepts_midpoint}; ties reject). *)

val vote_alarm : n:int -> false_alarm:float -> t -> int array -> bool
(** Accept vote: statistic strictly below {!alarm_cutoff}
    ({!Local_stat.accepts_alarm}; ties alarm). *)

(** {2 Testers}

    Complete distributed testers over a graph family, with the same
    referee rules, calibration, and false-alarm levels as the
    hand-written zoo ([And_tester], [Threshold_tester]) — which are
    themselves these constructors at [Clique]. *)

val tester_and : n:int -> eps:float -> k:int -> q:int -> family -> Evaluate.tester
(** AND referee: every player must accept. Players alarm at the
    rare-alarm cutoff calibrated so the network's null rejection
    probability stays under 1/3 (level 0.18 with t = 1). *)

val tester_fixed :
  n:int -> eps:float -> k:int -> q:int -> t:int -> family -> Evaluate.tester
(** Reject-threshold referee: reject when at least [t] players alarm.
    Per-player alarm rate from [Tail.binomial_max_p ~k ~t ~level:0.18].

    @raise Invalid_argument if [t] is outside [1, k]. *)

val tester_majority :
  n:int ->
  eps:float ->
  k:int ->
  q:int ->
  calibration_trials:int ->
  rng:Dut_prng.Rng.t ->
  family ->
  Evaluate.tester
(** Calibrated-threshold referee over midpoint-cutoff players: the
    referee cutoff is the empirical null reject-count quantile
    ([Calibrate.reject_count_cutoff ~level:0.2], [calibration_trials]
    uniform rounds on a split of [rng]). *)
