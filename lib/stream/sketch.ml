(* Mergeability drives every representation choice here: a sketch is a
   config pointer plus one int array plus a sample count, merging is
   integer addition, and every statistic is a pure function of the
   histogram the array stands for — so merging chunk sketches in any
   grouping reproduces the sketch of the concatenated stream exactly,
   which is what lets Ingest cut chunks and the referee combine players
   without touching the verdict bytes.

   What keeps the stream path O(chunk) rather than O(buckets) is the
   shape of that one array for a Hist sketch: while the sketch is added
   to and holds at most [nbuckets] samples it is a log of their bucket
   indices, and only past that, or once merged into, a histogram
   (converted once, in place). A 256-sample
   chunk of a 4096-bucket exact sketch is then 256 words of log:
   clearing it is O(1), and merging it into a histogram replays just
   those samples. The collision-pair count of a histogram is kept as an
   integer, updated per sample — a sample landing in a bucket of count
   c adds c pairs — so an exact checkpoint reads it in O(1), and it is
   the very integer the old fold over every bucket computed. *)

type kind = Hist | Ams

let kind_to_string = function Hist -> "hist" | Ams -> "ams"

let kind_of_string = function
  | "hist" -> Some Hist
  | "ams" -> Some Ams
  | _ -> None

type config = {
  ckind : kind;
  n : int;
  nbuckets : int;
  exact : bool;
  salt : int64;
  c_null_rate : float;
  shrink : float;  (* retained fraction of the per-pair eps^2/n gap *)
  c_loads : float array;
      (* Hist, hashed: q_b = (domain elements in bucket b) / n — the
         exact hashed-uniform bucket distribution. [||] otherwise. *)
  c_mu : float array;
      (* Ams: mu_k = (sum of the k-th ±1 hash over the domain) / n —
         the exact per-counter null drift of the frozen signs. [||]
         otherwise. *)
}

(* kind + n + salt + count + bucket-array pointer/length + the three
   cached floats: a deliberate over-count, so the words_used <= budget
   claim in the tests holds against any honest accounting. *)
let header_words = 8

let mix64 = Dut_prng.Splitmix.mix

(* Bucket of a sample under the shared salted hash. The identity map
   when the budget covers the domain: the histogram is then exact and
   bit-compatible with the batch statistic. *)
let bucket cfg x =
  if cfg.exact then x
  else
    let h = mix64 (Int64.logxor cfg.salt (Int64.of_int x)) in
    Int64.to_int (Int64.unsigned_rem h (Int64.of_int cfg.nbuckets))

(* k-th ±1 hash for the AMS counters: one SplitMix finalisation per
   counter, keyed by salt, counter index and sample. *)
let golden = 0x9E3779B97F4A7C15L

let sign cfg k x =
  let key =
    Int64.logxor
      (Int64.add cfg.salt (Int64.mul (Int64.of_int (k + 1)) golden))
      (Int64.of_int x)
  in
  if Int64.equal (Int64.logand (mix64 key) 1L) 0L then 1 else -1

let config ~kind ~n ~budget_words ~seed =
  if n <= 0 then invalid_arg "Sketch.config: n <= 0";
  if budget_words <= header_words then
    invalid_arg
      (Printf.sprintf "Sketch.config: budget_words <= %d (the fixed header)"
         header_words);
  let room = budget_words - header_words in
  let salt = mix64 (Int64.of_int seed) in
  match kind with
  | Ams ->
      let cfg =
        {
          ckind = Ams;
          n;
          nbuckets = room;
          exact = false;
          salt;
          c_null_rate = 0.;
          shrink = 1.;
          c_loads = [||];
          c_mu = [||];
        }
      in
      (* One frozen salt means the domain sign-sums S_k do not vanish,
         and the raw estimate E[(z_k^2 - m)/2] = pairs * (S_k/n)^2 is
         biased by exactly that drift. Compute every mu_k = S_k/n once
         here: the centered statistics subtract the bias instead of
         hoping a random salt averages it away. *)
      let mu =
        Array.init room (fun k ->
            let s = ref 0 in
            for x = 0 to n - 1 do
              s := !s + sign cfg k x
            done;
            float_of_int !s /. float_of_int n)
      in
      let rate =
        Array.fold_left (fun acc m -> acc +. (m *. m)) 0. mu
        /. float_of_int room
      in
      { cfg with c_null_rate = rate; c_mu = mu }
  | Hist ->
      let nbuckets = min n room in
      let exact = nbuckets >= n in
      let cfg =
        {
          ckind = Hist;
          n;
          nbuckets;
          exact;
          salt;
          c_null_rate = 0.;
          shrink = (if exact then 1. else 1. -. (1. /. float_of_int nbuckets));
          c_loads = [||];
          c_mu = [||];
        }
      in
      if exact then { cfg with c_null_rate = 1. /. float_of_int n }
      else begin
        (* The hash is fixed, so the null bucket distribution of the
           hashed uniform stream is not flat but exactly q_b = L_b/n
           over the actual bucket loads — computed once here, never
           estimated. The null collision rate is sum_b q_b^2. *)
        let loads = Array.make nbuckets 0 in
        for x = 0 to n - 1 do
          let b = bucket cfg x in
          loads.(b) <- loads.(b) + 1
        done;
        let fn = float_of_int n in
        let q = Array.map (fun l -> float_of_int l /. fn) loads in
        let rate = Array.fold_left (fun acc w -> acc +. (w *. w)) 0. q in
        { cfg with c_null_rate = rate; c_loads = q }
      end

let exact_budget ~n = n + header_words

let kind_of cfg = cfg.ckind

let universe cfg = cfg.n

let buckets cfg = cfg.nbuckets

let is_exact cfg = cfg.exact

type t = {
  cfg : config;
  counts : int array;
      (* [nbuckets] words. Hist: a log of bucket indices in
         [counts.(0 .. total-1)] while [logged], the histogram after;
         Ams: the K signed counters. *)
  mutable total : int;
  mutable logged : bool;  (* Hist only; an Ams sketch is never logged *)
  mutable pairs : int;  (* Hist histogram: colliding pairs; 0 while logged *)
}

let m_samples = Dut_obs.Metrics.counter "stream.samples_ingested"

let m_merges = Dut_obs.Metrics.counter "stream.sketch_merges"

let create cfg =
  {
    cfg;
    counts = Array.make cfg.nbuckets 0;
    total = 0;
    logged = cfg.ckind = Hist;
    pairs = 0;
  }

let config_of t = t.cfg

let check_config name a b =
  if a.cfg != b.cfg && a.cfg <> b.cfg then
    invalid_arg (name ^ ": differently-configured sketches")

(* Count a log into this domain's scratch histogram [h] (O(samples),
   whatever the bucket count) and return its collision pairs. *)
let count_log t h =
  let pairs = ref 0 in
  for i = 0 to t.total - 1 do
    pairs := !pairs + Dut_engine.Scratch.bump h t.counts.(i) - 1
  done;
  !pairs

let scratch t = Dut_engine.Scratch.hist ~size:t.cfg.nbuckets

(* The histogram view every statistic reads: bucket [b]'s count. For a
   log it reads the domain's scratch histogram, so it is valid until
   the next [scratch] call. *)
let bucket_count t =
  if t.logged then begin
    let h = scratch t in
    ignore (count_log t h);
    Dut_engine.Scratch.count h
  end
  else Array.get t.counts

(* Log -> histogram, once per sketch lifetime (until [clear]), in place
   through the scratch histogram. *)
let to_histogram t =
  let h = scratch t in
  let pairs = count_log t h in
  for b = 0 to t.cfg.nbuckets - 1 do
    t.counts.(b) <- Dut_engine.Scratch.count h b
  done;
  t.pairs <- pairs;
  t.logged <- false

let bump t b =
  let c = t.counts.(b) in
  t.pairs <- t.pairs + c;
  t.counts.(b) <- c + 1

let check_sample t x =
  if x < 0 || x >= t.cfg.n then invalid_arg "Sketch.add: sample out of range"

let add_unchecked t x =
  (match t.cfg.ckind with
  | Hist ->
      let b = bucket t.cfg x in
      if not t.logged then bump t b
      else if t.total < t.cfg.nbuckets then t.counts.(t.total) <- b
      else begin
        to_histogram t;
        bump t b
      end
  | Ams ->
      for k = 0 to t.cfg.nbuckets - 1 do
        t.counts.(k) <- t.counts.(k) + sign t.cfg k x
      done);
  t.total <- t.total + 1

let add t x =
  check_sample t x;
  add_unchecked t x;
  Dut_obs.Metrics.incr m_samples

let add_range t xs ~lo ~hi =
  if lo < 0 || hi < lo || hi > Array.length xs then
    invalid_arg "Sketch.add_range: bad range";
  for i = lo to hi - 1 do
    check_sample t xs.(i)
  done;
  for i = lo to hi - 1 do
    add_unchecked t xs.(i)
  done;
  Dut_obs.Metrics.add m_samples (hi - lo)

let count t = t.total

let words_used t = Array.length t.counts + header_words

let clear t =
  (match t.cfg.ckind with
  | Hist -> t.logged <- true
  | Ams -> Array.fill t.counts 0 t.cfg.nbuckets 0);
  t.total <- 0;
  t.pairs <- 0

let blit ~src ~dst =
  check_config "Sketch.blit" src dst;
  Array.blit src.counts 0 dst.counts 0
    (if src.logged then src.total else src.cfg.nbuckets);
  dst.total <- src.total;
  dst.logged <- src.logged;
  dst.pairs <- src.pairs

let copy t =
  let c = create t.cfg in
  blit ~src:t ~dst:c;
  c

let merge_into ~into src =
  check_config "Sketch.merge_into" into src;
  let src = if src == into then copy src else src in
  Dut_obs.Metrics.incr m_merges;
  let nb = into.cfg.nbuckets in
  (match into.cfg.ckind with
  | Ams ->
      for k = 0 to nb - 1 do
        into.counts.(k) <- into.counts.(k) + src.counts.(k)
      done
  | Hist when src.logged ->
      (* Replay the log: O(samples merged), not O(buckets). *)
      if into.logged then to_histogram into;
      for i = 0 to src.total - 1 do
        bump into src.counts.(i)
      done
  | Hist ->
      if into.logged then to_histogram into;
      (* pairs(a + s) = pairs(a) + pairs(s) + sum_b a_b s_b *)
      let cross = ref 0 in
      for b = 0 to nb - 1 do
        let a = into.counts.(b) and s = src.counts.(b) in
        cross := !cross + (a * s);
        into.counts.(b) <- a + s
      done;
      into.pairs <- into.pairs + src.pairs + !cross);
  into.total <- into.total + src.total

let subtract ~from src =
  check_config "Sketch.subtract" from src;
  if src.total > from.total then
    invalid_arg "Sketch.subtract: more samples than the sketch holds";
  let nb = from.cfg.nbuckets in
  (match from.cfg.ckind with
  | Ams ->
      for k = 0 to nb - 1 do
        from.counts.(k) <- from.counts.(k) - src.counts.(k)
      done
  | Hist ->
      if from.logged then to_histogram from;
      if src.logged then
        for i = 0 to src.total - 1 do
          let b = src.counts.(i) in
          let c = from.counts.(b) - 1 in
          from.counts.(b) <- c;
          from.pairs <- from.pairs - c
        done
      else begin
        let cross = ref 0 in
        for b = 0 to nb - 1 do
          let s = src.counts.(b) in
          let a = from.counts.(b) - s in
          cross := !cross + (a * s);
          from.counts.(b) <- a
        done;
        from.pairs <- from.pairs - src.pairs - !cross
      end);
  from.total <- from.total - src.total

let merge a b =
  let c = copy a in
  merge_into ~into:c b;
  c

(* A fresh copy of the histogram view, for the comparisons below. *)
let histogram t = Array.init t.cfg.nbuckets (bucket_count t)

let equal a b =
  a.cfg = b.cfg && a.total = b.total && histogram a = histogram b

let fingerprint t =
  let buf = Buffer.create (16 + (t.cfg.nbuckets * 4)) in
  Buffer.add_string buf (kind_to_string t.cfg.ckind);
  Buffer.add_char buf ':';
  Buffer.add_string buf (string_of_int t.total);
  Array.iter
    (fun c ->
      Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int c))
    (histogram t);
  Buffer.contents buf

(* -- statistics --------------------------------------------------------- *)

let pairs m = float_of_int m *. float_of_int (m - 1) /. 2.

let collision_stat t =
  match t.cfg.ckind with
  | Hist -> float_of_int (if t.logged then count_log t (scratch t) else t.pairs)
  | Ams ->
      (* E[z_k^2] = sum_x c_x^2 = count + 2*pairs for pairwise
         independent ±1 signs; average the K unbiased estimates. *)
      let k = Array.length t.counts in
      let m = float_of_int t.total in
      let acc =
        Array.fold_left
          (fun acc z ->
            let z = float_of_int z in
            acc +. (((z *. z) -. m) /. 2.))
          0. t.counts
      in
      acc /. float_of_int k

let null_mean t = pairs t.total *. t.cfg.c_null_rate

(* The centered decision statistic: exactly zero-mean under the
   uniform null, per the frozen hash. Centering is what makes the
   budgeted sketches usable at all — the raw collision count of the
   hashed stream fluctuates with the uneven bucket loads (a
   6*C(m,3)*(sum q^3 - p^2) variance term that swamps the eps^2 gap),
   and the raw AMS estimate carries the per-salt drift bias
   pairs*(S_k/n)^2. Judging the deviation from the exact null
   expectation of each bucket/counter kills both: the null variance
   drops to ~ C(m,2)*p(1-p), the identity-testing chi-square rate, and
   the eps-far excess stays ~ C(m,2)*shrink*eps^2/n — which is what
   gives the q* ~ n/sqrt(B) memory/sample tradeoff. *)
let excess t =
  let m = float_of_int t.total in
  match t.cfg.ckind with
  | Hist when t.cfg.exact -> collision_stat t -. null_mean t
  | Hist ->
      let count = bucket_count t in
      let acc = ref 0. in
      for b = 0 to t.cfg.nbuckets - 1 do
        let c = float_of_int (count b) in
        let mq = m *. t.cfg.c_loads.(b) in
        let d = c -. mq in
        acc := !acc +. ((d *. d) -. (c *. (1. -. t.cfg.c_loads.(b))))
      done;
      !acc /. 2.
  | Ams ->
      let k = Array.length t.counts in
      let acc = ref 0. in
      for i = 0 to k - 1 do
        let mu = t.cfg.c_mu.(i) in
        let z = float_of_int t.counts.(i) -. (m *. mu) in
        acc := !acc +. (((z *. z) -. (m *. (1. -. (mu *. mu)))) /. 2.)
      done;
      !acc /. float_of_int k

let null_sd t =
  (* sd of [excess] under the null: the centered chi-square rate
     sqrt(C(m,2) p (1-p)) with p the exact null collision rate, plus
     the AMS estimator's own variance ~ m^2/2K for the K-average. *)
  let p = t.cfg.c_null_rate in
  let base = pairs t.total *. p *. (1. -. p) in
  match t.cfg.ckind with
  | Hist -> sqrt base
  | Ams ->
      let m = float_of_int t.total in
      sqrt (base +. (m *. m /. (2. *. float_of_int (Array.length t.counts))))

let gap t ~eps =
  pairs t.total *. t.cfg.shrink *. eps *. eps /. float_of_int t.cfg.n

let decision_stat t = if t.cfg.exact then collision_stat t else excess t

let cutoff t ~eps =
  if t.cfg.exact then
    (* Bit-identical to the batch tester's cutoff, so exact sketches
       reproduce batch verdicts on every stream, ties included. *)
    Dut_testers.Collision.cutoff ~n:t.cfg.n ~m:t.total ~eps
  else gap t ~eps /. 2.

let accepts t ~eps = decision_stat t < cutoff t ~eps
