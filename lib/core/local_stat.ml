let collisions samples =
  let a = Array.copy samples in
  Array.sort Int.compare a;
  let q = Array.length a in
  (* Sum C(run,2) over maximal runs of equal values. *)
  let total = ref 0 in
  let run = ref 1 in
  for i = 1 to q - 1 do
    if a.(i) = a.(i - 1) then incr run
    else begin
      total := !total + (!run * (!run - 1) / 2);
      run := 1
    end
  done;
  if q > 0 then total := !total + (!run * (!run - 1) / 2);
  !total

(* Largest universe for which the counting path (a per-domain
   generation-stamped histogram) is used; beyond it the backing arrays
   would outweigh the sort they replace. *)
let hist_universe_limit = 1 lsl 16

(* Top-level recursion instead of [Array.iter f] + a [ref]: the
   capturing closure and the accumulator cell were the last per-call
   allocations on the statistic every player evaluates every round. *)
let rec bump_all h samples i q acc =
  if i >= q then acc
  else
    bump_all h samples (i + 1) q
      (acc + Dut_engine.Scratch.bump h (Array.unsafe_get samples i) - 1)

let collisions_bounded ~n samples =
  if n <= 0 then invalid_arg "Local_stat.collisions_bounded: n <= 0";
  if n > hist_universe_limit then collisions samples
  else
    (* Counting sort via scratch histogram: O(q) with zero allocation
       (clearing is a generation bump, not an O(n) zeroing). Growing a
       bucket from c-1 to c creates exactly c-1 new colliding pairs, so
       one pass accumulates sum C(count,2). *)
    let h = Dut_engine.Scratch.hist ~size:n in
    bump_all h samples 0 (Array.length samples) 0

let pairs q = float_of_int q *. float_of_int (q - 1) /. 2.

let triples q =
  let qf = float_of_int q in
  qf *. (qf -. 1.) *. (qf -. 2.) /. 6.

(* -- The edge-parameterized cutoff core --------------------------------

   Every collision-style statistic is a sum of edge indicators
   1[X_i = X_j] over some comparison graph on the samples (Meir,
   arXiv:2012.01882). Under the uniform null each edge fires with
   probability 1/n and any two distinct edges are pairwise independent
   (P[two shared-vertex edges both fire] = P[three samples equal]
   = 1/n^2 = P for disjoint edges), so the mean and variance depend on
   the graph only through its edge count; the third central moment
   additionally sees the triangle count. The clique specializes to the
   classic collision statistic: edges = C(q,2), triangles = C(q,3). *)

let null_mean_edges ~n ~edges = edges /. float_of_int n

let far_mean_edges ~n ~edges ~eps = edges *. (1. +. (eps *. eps)) /. float_of_int n

let midpoint_cutoff_edges ~n ~edges ~eps =
  edges *. (1. +. (eps *. eps /. 2.)) /. float_of_int n

let alarm_cutoff_edges ~n ~edges ~triangles ~false_alarm =
  let mean = null_mean_edges ~n ~edges in
  if mean <= 50. then Dut_stats.Tail.count_cutoff ~mean ~p:false_alarm
  else begin
    (* Beyond the Poisson regime the edge-collision count is
       right-skewed past normal: its third central moment is
       ~ mean + 6T/n^2 where T is the graph's triangle count (a triangle
       of edges fires together with probability 1/n^2, not 1/n^3; every
       other edge triple factorizes). For the clique T = C(q,3), the
       index-sharing pair triangles that matter once q > n.
       Cornish-Fisher upper quantile with that skew. The quantile is
       rounded up once — ceil(quantile + 0.5) double-rounded, inflating
       the cutoff by 1 whenever the quantile landed on an integer. *)
    let nf = float_of_int n in
    let sigma = sqrt (mean *. (1. -. (1. /. nf))) in
    let mu3 = mean +. (6. *. triangles /. (nf *. nf)) in
    let gamma = mu3 /. (sigma ** 3.) in
    let z = Dut_stats.Tail.normal_isf false_alarm in
    int_of_float
      (ceil (mean +. (sigma *. (z +. (gamma *. ((z *. z) -. 1.) /. 6.)))))
  end

(* -- The shared comparison convention -----------------------------------

   Accept iff the statistic is strictly below the cutoff; a statistic
   that ties the cutoff rejects (alarms). Midpoint cutoffs are floats
   compared in float space (exact: counts are far below 2^53); alarm
   cutoffs are integers compared in integer space. Every tester — hand
   written or graph-instantiated — must route its verdict through these
   two functions so boundary counts can never diverge between paths. *)

let accepts_midpoint ~cutoff count = float_of_int count < cutoff

let accepts_alarm ~cutoff count = count < cutoff

(* -- Clique instantiations ---------------------------------------------- *)

let null_mean ~n ~q = null_mean_edges ~n ~edges:(pairs q)

let far_mean ~n ~q ~eps = far_mean_edges ~n ~edges:(pairs q) ~eps

let midpoint_cutoff ~n ~q ~eps = midpoint_cutoff_edges ~n ~edges:(pairs q) ~eps

let alarm_cutoff ~n ~q ~false_alarm =
  alarm_cutoff_edges ~n ~edges:(pairs q) ~triangles:(triples q) ~false_alarm

let vote_midpoint ~n ~q ~eps samples =
  accepts_midpoint ~cutoff:(midpoint_cutoff ~n ~q ~eps)
    (collisions_bounded ~n samples)

let vote_alarm ~n ~q ~false_alarm samples =
  accepts_alarm ~cutoff:(alarm_cutoff ~n ~q ~false_alarm)
    (collisions_bounded ~n samples)

let null_midpoint_rejects ~n ~q ~eps ~voters rng =
  let cutoff = midpoint_cutoff ~n ~q ~eps in
  let samples = Dut_engine.Scratch.borrow ~len:q in
  let rejects = ref 0 in
  for _ = 1 to voters do
    Dut_prng.Rng.ints_into rng ~bound:n samples;
    if not (accepts_midpoint ~cutoff (collisions_bounded ~n samples)) then
      incr rejects
  done;
  Dut_engine.Scratch.release samples;
  !rejects
