type t = { n : int; eps : float; k : int; buckets : int; groups : int }

let make ~n ~eps ~k ~bits =
  if n <= 0 || k <= 0 then invalid_arg "Single_sample.make: bad sizes";
  if bits < 1 || bits > 24 then invalid_arg "Single_sample.make: bits outside [1,24]";
  if 1 lsl bits > n then invalid_arg "Single_sample.make: more buckets than elements";
  if eps <= 0. || eps >= 1. then invalid_arg "Single_sample.make: eps out of (0,1)";
  (* With few buckets a single partition's signal is a low-dof chi-square
     and can land near zero; averaging over independent partitions across
     a constant number of player groups concentrates it. The group count
     must not depend on the bucket count, or it would distort the
     2^(l/2) scaling the experiment measures. *)
  let buckets = 1 lsl bits in
  let groups = max 1 (min (k / 2) 8) in
  { n; eps; k; buckets; groups }

let group_sizes t =
  Array.init t.groups (fun g ->
      let base = t.k / t.groups in
      if g < t.k mod t.groups then base + 1 else base)

let total_pairs t =
  Array.fold_left
    (fun acc kg -> acc +. (float_of_int kg *. float_of_int (kg - 1) /. 2.))
    0. (group_sizes t)

let expected_uniform t = total_pairs t /. float_of_int t.buckets

(* Under a balanced random partition into B buckets, a matched +-eps/n
   pair cancels whenever both halves land in the same bucket (probability
   ~ 1/B), so the expected squared l2 mass of the bucketed deviation is
   eps^2/n * (1 - 1/B), and the expected far-side collision count is
   (within-group pairs) * (1/B + eps^2/n * (1 - 1/B)). *)
let expected_far t =
  let b = float_of_int t.buckets in
  total_pairs t
  *. ((1. /. b) +. (t.eps *. t.eps /. float_of_int t.n *. (1. -. (1. /. b))))

let cutoff t = (expected_uniform t +. expected_far t) /. 2.

let accepts t =
  (* Everything that depends only on the tester's parameters is computed
     once per tester, not once per trial: the critical-k search runs
     hundreds of trials against the same [t]. *)
  let block = t.n / t.buckets in
  let cutoff = cutoff t in
  (* Players 0..k-1 are assigned to groups in contiguous runs: the first
     [k mod groups] groups carry one extra player (mirroring
     [group_sizes]), so the group of a player index is arithmetic. *)
  let base = t.k / t.groups and extra = t.k mod t.groups in
  let boundary = (base + 1) * extra in
  let group_of index =
    if index < boundary then index / (base + 1)
    else extra + ((index - boundary) / base)
  in
  fun rng source ->
    (* Public coins: one balanced random partition of [n] into equal
       buckets per player group (n and buckets are powers of two, so the
       blocks divide evenly). Balance makes the null bucket distribution
       exactly uniform; independent partitions across groups concentrate
       the far-side signal. The partitions live in borrowed per-domain
       scratch (one flat groups*n assignment table plus one permutation
       buffer) — the shuffles consume exactly the draws the old
       per-trial [Array.init] allocation did. *)
    let assignment = Dut_engine.Scratch.borrow ~len:(t.groups * t.n) in
    let perm = Dut_engine.Scratch.borrow ~len:t.n in
    for g = 0 to t.groups - 1 do
      for i = 0 to t.n - 1 do
        perm.(i) <- i
      done;
      Dut_prng.Rng.shuffle_in_place rng perm;
      let off = g * t.n in
      for pos = 0 to t.n - 1 do
        assignment.(off + perm.(pos)) <- pos / block
      done
    done;
    (* Messages are (group, bucket) pairs encoded as the single int
       g * buckets + bucket — the referee's collision count only needs
       equality within a group, and the flat code doubles as a histogram
       index. A bucket that reaches count c contributes c-1 new
       colliding pairs, so the referee is a running fold over messages:
       no message vector, no counts matrix. *)
    let messenger ~index _coins (samples : int array) =
      let g = group_of index in
      (g * t.buckets) + assignment.((g * t.n) + samples.(0))
    in
    let h = Dut_engine.Scratch.hist ~size:(t.groups * t.buckets) in
    let colliding =
      Dut_protocol.Network.round_fold ~rng ~source ~k:t.k ~q:1 ~messenger
        ~init:0
        ~f:(fun acc m -> acc + (Dut_engine.Scratch.bump h m - 1))
    in
    Dut_engine.Scratch.release perm;
    Dut_engine.Scratch.release assignment;
    float_of_int colliding < cutoff

let tester ~n ~eps ~k ~bits =
  let t = make ~n ~eps ~k ~bits in
  {
    Evaluate.name = Printf.sprintf "single-sample-%dbit(n=%d,k=%d)" bits n k;
    accepts = accepts t;
  }

let critical_k ?adaptive ~trials ~level ~rng ~ell ~eps ~bits ?(hi = 1 lsl 22)
    ?guess () =
  let n = 1 lsl (ell + 1) in
  let ok k =
    let probe_rng = Dut_prng.Rng.split rng in
    Evaluate.succeeds ?adaptive ~trials ~level ~rng:probe_rng ~ell ~eps
      (tester ~n ~eps ~k ~bits)
  in
  match guess with
  | Some guess -> Dut_stats.Critical.search_seeded ~lo:2 ~hi ~guess ok
  | None -> Dut_stats.Critical.search ~lo:2 ~hi ok
