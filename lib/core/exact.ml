type g = { ell : int; q : int; table : Bytes.t }

let ell g = g.ell
let q g = g.q

let domain_bits ~ell ~q = (ell + 1) * q

let domain_size ~ell ~q =
  let bits = domain_bits ~ell ~q in
  if ell < 0 || q <= 0 || bits > 24 then
    invalid_arg "Exact.domain_size: need ell >= 0, q >= 1, (ell+1)q <= 24";
  1 lsl bits

let decode_tuple ~ell ~q idx =
  let width = ell + 1 in
  let mask = (1 lsl width) - 1 in
  Array.init q (fun j -> (idx lsr (j * width)) land mask)

let of_predicate ~ell ~q f =
  let size = domain_size ~ell ~q in
  let table = Bytes.create size in
  for idx = 0 to size - 1 do
    Bytes.unsafe_set table idx
      (if f (decode_tuple ~ell ~q idx) then '\001' else '\000')
  done;
  { ell; q; table }

let collision_acceptor ~ell ~q ~cutoff =
  of_predicate ~ell ~q (fun tuple -> Local_stat.collisions tuple < cutoff)

let random_biased ~ell ~q ~accept_prob rng =
  of_predicate ~ell ~q (fun _ -> Dut_prng.Rng.bernoulli rng accept_prob)

let constant ~ell ~q value = of_predicate ~ell ~q (fun _ -> value)

let s_detector ~ell ~q =
  (* Element code 2x has s = +1 (low bit clear). *)
  of_predicate ~ell ~q (fun tuple -> tuple.(0) land 1 = 0)

let value g idx = if Bytes.unsafe_get g.table idx = '\001' then 1. else 0.

let size g = Bytes.length g.table

let mu g =
  let acc = ref 0 in
  for idx = 0 to size g - 1 do
    if Bytes.unsafe_get g.table idx = '\001' then incr acc
  done;
  float_of_int !acc /. float_of_int (size g)

let variance g =
  let m = mu g in
  m *. (1. -. m)

let nu g dist =
  if Dut_dist.Paninski.ell dist <> g.ell then
    invalid_arg "Exact.nu: family dimension mismatch";
  let n = 1 lsl (g.ell + 1) in
  let elem_prob = Array.init n (Dut_dist.Paninski.prob dist) in
  let width = g.ell + 1 in
  let mask = (1 lsl width) - 1 in
  let acc = ref 0. in
  for idx = 0 to size g - 1 do
    if Bytes.unsafe_get g.table idx = '\001' then begin
      let p = ref 1. in
      for j = 0 to g.q - 1 do
        p := !p *. elem_prob.((idx lsr (j * width)) land mask)
      done;
      acc := !acc +. !p
    end
  done;
  !acc

(* Lemma 4.1: nu_z(G) - mu(G) as a character sum. For each tuple x of
   left-cube values we extract G_x : {-1,1}^q -> {0,1} (the s-slice),
   Fourier-transform it, and accumulate
   eps^|S| * prod_{j in S} z(x_j) * Ghat_x(S) over non-empty S. *)
let diff_fourier g dist =
  if Dut_dist.Paninski.ell dist <> g.ell then
    invalid_arg "Exact.diff_fourier: family dimension mismatch";
  let eps = Dut_dist.Paninski.eps dist in
  let z = Dut_dist.Paninski.z dist in
  let m = 1 lsl g.ell in
  let width = g.ell + 1 in
  let two_q = 1 lsl g.q in
  (* The s-slice is a borrowed scratch slab, transformed in place and
     fully overwritten per x-tuple: the per-tuple [Fourier.transform]
     copy (and its record) are gone, the arithmetic is unchanged — the
     normalization [*. inv_n] is applied at the use site, on the same
     values in the same order. *)
  let slice = Dut_engine.Scratch.borrow_floats ~len:two_q in
  let inv_n = 1. /. float_of_int two_q in
  (* Iterate over x-tuples encoded base-m. *)
  let x = Array.make g.q 0 in
  let m_pow_q =
    let rec go acc i = if i = 0 then acc else go (acc * m) (i - 1) in
    go 1 g.q
  in
  let total = ref 0. in
  for xid = 0 to m_pow_q - 1 do
    (* Decode x and build the base tuple index with all s-bits = 0. *)
    let rest = ref xid in
    let base = ref 0 in
    for j = 0 to g.q - 1 do
      x.(j) <- !rest mod m;
      rest := !rest / m;
      base := !base lor ((2 * x.(j)) lsl (j * width))
    done;
    (* Fill the s-slice: s_mask bit j set means s_j = -1, i.e. element
       code 2x_j + 1, i.e. add (1 lsl (j*width)) to the index. *)
    for s_mask = 0 to two_q - 1 do
      let idx = ref !base in
      for j = 0 to g.q - 1 do
        if (s_mask lsr j) land 1 = 1 then idx := !idx lor (1 lsl (j * width))
      done;
      slice.(s_mask) <- value g !idx
    done;
    Dut_boolcube.Fourier.wht_in_place slice;
    (* Accumulate over non-empty S. *)
    for s = 1 to two_q - 1 do
      let zprod = ref 1. in
      for j = 0 to g.q - 1 do
        if (s lsr j) land 1 = 1 then zprod := !zprod *. float_of_int z.(x.(j))
      done;
      let coeff = slice.(s) *. inv_n in
      total :=
        !total
        +. (eps ** float_of_int (Dut_boolcube.Cube.popcount s))
           *. !zprod
           *. coeff
    done
  done;
  Dut_engine.Scratch.release_floats slice;
  (* Prefactor 2^q / n^q; note n^q = 2^q * m^q, so 2^q/n^q = 1/m^q. *)
  !total /. float_of_int m_pow_q

let iter_all_z ~ell f =
  if ell < 0 || ell > 4 then invalid_arg "Exact.iter_all_z: ell outside [0,4]";
  let m = 1 lsl ell in
  for z_mask = 0 to (1 lsl m) - 1 do
    f (Array.init m (fun i -> if (z_mask lsr i) land 1 = 1 then -1 else 1))
  done

let max_collisions q = q * (q - 1) / 2

let collision_pmf_of_probs ~ell ~q elem_prob =
  let n = 1 lsl (ell + 1) in
  let size = domain_size ~ell ~q in
  let width = ell + 1 in
  let mask = (1 lsl width) - 1 in
  let pmf = Array.make (max_collisions q + 1) 0. in
  let tuple = Array.make q 0 in
  for idx = 0 to size - 1 do
    let p = ref 1. in
    for j = 0 to q - 1 do
      let e = (idx lsr (j * width)) land mask in
      tuple.(j) <- e;
      p := !p *. elem_prob.(e)
    done;
    let c = Local_stat.collisions_bounded ~n tuple in
    pmf.(c) <- pmf.(c) +. !p
  done;
  pmf

let collision_pmf_uniform ~ell ~q =
  let n = 1 lsl (ell + 1) in
  collision_pmf_of_probs ~ell ~q (Array.make n (1. /. float_of_int n))

let collision_pmf_far ~ell ~q ~eps =
  let n = 1 lsl (ell + 1) in
  let acc = Array.make (max_collisions q + 1) 0. in
  let count = ref 0 in
  iter_all_z ~ell (fun z ->
      let d = Dut_dist.Paninski.create ~ell ~eps ~z in
      let pmf =
        collision_pmf_of_probs ~ell ~q (Array.init n (Dut_dist.Paninski.prob d))
      in
      Array.iteri (fun c p -> acc.(c) <- acc.(c) +. p) pmf;
      incr count);
  Array.map (fun p -> p /. float_of_int !count) acc

let message_divergence ~ell ~q ~eps ~levels message =
  let n = 1 lsl (ell + 1) in
  let size = domain_size ~ell ~q in
  let width = ell + 1 in
  let mask = (1 lsl width) - 1 in
  (* Precompute each tuple's message cell once. *)
  let cell = Array.make size 0 in
  let tuple = Array.make q 0 in
  for idx = 0 to size - 1 do
    for j = 0 to q - 1 do
      tuple.(j) <- (idx lsr (j * width)) land mask
    done;
    let m = message tuple in
    if m < 0 || m >= levels then
      invalid_arg "Exact.message_divergence: message out of range";
    cell.(idx) <- m
  done;
  let null_dist = Array.make levels 0. in
  let unif_p = 1. /. float_of_int size in
  Array.iter (fun m -> null_dist.(m) <- null_dist.(m) +. unif_p) cell;
  let log2 x = log x /. log 2. in
  let total = ref 0. in
  let count = ref 0 in
  iter_all_z ~ell (fun z ->
      let d = Dut_dist.Paninski.create ~ell ~eps ~z in
      let elem_prob = Array.init n (Dut_dist.Paninski.prob d) in
      let far_dist = Array.make levels 0. in
      for idx = 0 to size - 1 do
        let p = ref 1. in
        for j = 0 to q - 1 do
          p := !p *. elem_prob.((idx lsr (j * width)) land mask)
        done;
        far_dist.(cell.(idx)) <- far_dist.(cell.(idx)) +. !p
      done;
      let kl = ref 0. in
      for m = 0 to levels - 1 do
        if far_dist.(m) > 0. then
          kl := !kl +. (far_dist.(m) *. log2 (far_dist.(m) /. null_dist.(m)))
      done;
      total := !total +. !kl;
      incr count);
  !total /. float_of_int !count

let exact_test_power ~null ~far ~cutoff =
  let mass pmf =
    let acc = ref 0. in
    Array.iteri (fun c p -> if c < cutoff then acc := !acc +. p) pmf;
    !acc
  in
  (mass null, 1. -. mass far)

let best_cutoff_power ~null ~far =
  let best = ref (0, 0.) in
  for cutoff = 0 to Array.length null do
    let a, r = exact_test_power ~null ~far ~cutoff in
    let v = Float.min a r in
    if v > snd !best then best := (cutoff, v)
  done;
  !best

let fold_over_z g ~eps f init =
  let base = mu g in
  let acc = ref init in
  let count = ref 0 in
  iter_all_z ~ell:g.ell (fun z ->
      let dist = Dut_dist.Paninski.create ~ell:g.ell ~eps ~z in
      acc := f !acc (nu g dist -. base);
      incr count);
  (!acc, !count)

let mean_diff_over_z g ~eps =
  let total, count = fold_over_z g ~eps (fun acc d -> acc +. d) 0. in
  total /. float_of_int count

let mean_sq_diff_over_z g ~eps =
  let total, count = fold_over_z g ~eps (fun acc d -> acc +. (d *. d)) 0. in
  total /. float_of_int count

(* Constant G gives rhs exactly 0 while the lhs carries ~1e-16 of
   summation residue; treat anything below float-rounding scale as a true
   zero. *)
let safe_ratio lhs rhs =
  if rhs = 0. then if Float.abs lhs < 1e-11 then 0. else infinity
  else lhs /. rhs

let lemma51_ratio g ~eps =
  let n = 1 lsl (g.ell + 1) in
  let lhs = Float.abs (mean_diff_over_z g ~eps) in
  let rhs = Bounds.lemma51_rhs ~q:g.q ~n ~eps ~var_g:(variance g) in
  safe_ratio lhs rhs

let lemma42_ratio g ~eps =
  let n = 1 lsl (g.ell + 1) in
  let lhs = mean_sq_diff_over_z g ~eps in
  let rhs = Bounds.lemma42_rhs ~q:g.q ~n ~eps ~var_g:(variance g) in
  safe_ratio lhs rhs

let lemma42_slack_ratio g ~eps =
  let n = 1 lsl (g.ell + 1) in
  let lhs = mean_sq_diff_over_z g ~eps in
  let rhs = Bounds.lemma42_rhs_slack ~q:g.q ~n ~eps ~var_g:(variance g) in
  safe_ratio lhs rhs

let lemma43_ratio g ~eps ~m =
  let n = 1 lsl (g.ell + 1) in
  let lhs = Float.abs (mean_diff_over_z g ~eps) in
  let rhs = Bounds.lemma43_rhs ~q:g.q ~n ~eps ~var_g:(variance g) ~m in
  safe_ratio lhs rhs

let lemma44_ratio g ~eps ~m ~c =
  let n = 1 lsl (g.ell + 1) in
  let lhs = mean_sq_diff_over_z g ~eps in
  let rhs = Bounds.lemma44_rhs ~q:g.q ~n ~eps ~var_g:(variance g) ~m ~c in
  safe_ratio lhs rhs

let lemma44_min_constant g ~eps ~m =
  let n = 1 lsl (g.ell + 1) in
  let lhs = mean_sq_diff_over_z g ~eps in
  (* rhs(C) = base + C * slope with base = rhs at C=0 and slope the
     C-coefficient; solve lhs <= base + C*slope for the least C >= 0. *)
  let base = Bounds.lemma44_rhs ~q:g.q ~n ~eps ~var_g:(variance g) ~m ~c:0. in
  let slope =
    Bounds.lemma44_rhs ~q:g.q ~n ~eps ~var_g:(variance g) ~m ~c:1. -. base
  in
  if lhs <= base +. 1e-12 then 0.
  else if slope <= 0. then infinity
  else (lhs -. base) /. slope
