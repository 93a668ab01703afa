type t = {
  ell : int;
  eps : float;
  z : int array;
  (* The per-sign acceptance thresholds of [draw], scaled by 2^53 so
     the Bernoulli coin is decided in the integer lattice of
     [Rng.bits53] (see Sampler for the exactness argument):
     thr.(1) = p_plus * 2^53 for z(x) = +1, thr.(0) for z(x) = -1.
     Indexing by (z+1) lsr 1 makes the sign selection a lookup, not a
     branch. Since eps < 1 both probabilities are strictly inside
     (0,1), so the coin always consumes exactly one draw — the same
     stream as [Rng.bernoulli]. *)
  thr : float array;
  (* The rejection mask [Rng.int] would rebuild per draw, hoisted. *)
  mask : int;
}

let thresholds eps =
  [| (1. -. eps) /. 2. *. 0x1.0p53; (1. +. eps) /. 2. *. 0x1.0p53 |]

let create ~ell ~eps ~z =
  if ell < 0 || ell > 20 then invalid_arg "Paninski.create: ell out of [0,20]";
  if eps < 0. || eps >= 1. then invalid_arg "Paninski.create: eps out of [0,1)";
  if Array.length z <> 1 lsl ell then
    invalid_arg "Paninski.create: z must have length 2^ell";
  Array.iter
    (fun v -> if v <> 1 && v <> -1 then invalid_arg "Paninski.create: z entries must be +-1")
    z;
  { ell; eps; z = Array.copy z; thr = thresholds eps; mask = Dut_prng.Rng.mask_for (1 lsl ell) }

let random ~ell ~eps rng =
  create ~ell ~eps ~z:(Dut_prng.Rng.rademacher_vector rng (1 lsl ell))

(* One scratch z-buffer per (domain, ell): the Monte-Carlo hot path
   draws a fresh hard instance per trial, and rebuilding the O(2^ell)
   vector in place avoids that allocation entirely. Indexed by ell
   (bounded by 20) so interleaved use at different sizes — e.g. a
   run at ell = 7 and ell = 2 — never churns. *)
let scratch_z = Domain.DLS.new_key (fun () -> Array.make 21 [||])

let random_scratch ~ell ~eps rng =
  if ell < 0 || ell > 20 then invalid_arg "Paninski.random_scratch: ell out of [0,20]";
  if eps < 0. || eps >= 1. then invalid_arg "Paninski.random_scratch: eps out of [0,1)";
  let m = 1 lsl ell in
  let slots = Domain.DLS.get scratch_z in
  let z =
    if Array.length slots.(ell) = m then slots.(ell)
    else begin
      let b = Array.make m 1 in
      slots.(ell) <- b;
      b
    end
  in
  (* Same draws, in the same order, as [random]. *)
  Dut_prng.Rng.rademacher_vector_into rng z;
  { ell; eps; z; thr = thresholds eps; mask = Dut_prng.Rng.mask_for (1 lsl ell) }

let all_plus ~ell ~eps = create ~ell ~eps ~z:(Array.make (1 lsl ell) 1)

let ell t = t.ell
let eps t = t.eps
let n t = 1 lsl (t.ell + 1)
let m t = 1 lsl t.ell
let z t = Array.copy t.z

let encode ~x ~s = (2 * x) + if s = 1 then 0 else 1

let decode i = (i / 2, if i land 1 = 0 then 1 else -1)

let prob t i =
  let x, s = decode i in
  (1. +. (float_of_int s *. float_of_int t.z.(x) *. t.eps)) /. float_of_int (n t)

let pmf t = Pmf.create_exn_strict (Array.init (n t) (prob t))

let draw t rng =
  let x = Dut_prng.Rng.masked_int rng ~mask:t.mask ~bound:(m t) in
  let thr = Array.unsafe_get t.thr ((t.z.(x) + 1) lsr 1) in
  let plus = float_of_int (Dut_prng.Rng.bits53 rng) < thr in
  (2 * x) + Bool.to_int (not plus)

(* Batched draws with the rejection mask and tables hoisted: the same
   stream as repeated scalar [draw]s (one bounded draw, one coin per
   sample), no per-element closure. *)
let draw_block t rng buf =
  let mm = m t in
  let mask = t.mask in
  let z = t.z and thr = t.thr in
  for j = 0 to Array.length buf - 1 do
    let x = Dut_prng.Rng.masked_int rng ~mask ~bound:mm in
    let cut = Array.unsafe_get thr ((Array.unsafe_get z x + 1) lsr 1) in
    let plus = float_of_int (Dut_prng.Rng.bits53 rng) < cut in
    Array.unsafe_set buf j ((2 * x) + Bool.to_int (not plus))
  done

let draw_many_into t rng buf = draw_block t rng buf

let draw_many t rng q =
  let buf = Array.make q 0 in
  draw_block t rng buf;
  buf

let tuple_prob t tuple =
  Array.fold_left (fun acc i -> acc *. prob t i) 1. tuple

let tuple_prob_fourier t tuple =
  let q = Array.length tuple in
  let xs = Array.map (fun i -> fst (decode i)) tuple in
  let ss = Array.map (fun i -> snd (decode i)) tuple in
  (* Sum over all subsets S of positions: eps^|S| * prod_{j in S} s_j z(x_j). *)
  let acc = ref 0. in
  for s_mask = 0 to (1 lsl q) - 1 do
    let term = ref 1. in
    for j = 0 to q - 1 do
      if (s_mask lsr j) land 1 = 1 then
        term := !term *. t.eps *. float_of_int ss.(j) *. float_of_int t.z.(xs.(j))
    done;
    acc := !acc +. !term
  done;
  !acc /. (float_of_int (n t) ** float_of_int q)

let mixture_exact ~ell ~eps =
  let m_size = 1 lsl ell in
  if m_size > 16 then invalid_arg "Paninski.mixture_exact: ell too large to enumerate";
  let n_size = 1 lsl (ell + 1) in
  let acc = Array.make n_size 0. in
  let num_z = 1 lsl m_size in
  for z_mask = 0 to num_z - 1 do
    let z = Array.init m_size (fun x -> if (z_mask lsr x) land 1 = 1 then -1 else 1) in
    let d = create ~ell ~eps ~z in
    for i = 0 to n_size - 1 do
      acc.(i) <- acc.(i) +. prob d i
    done
  done;
  Pmf.create (Array.map (fun w -> w /. float_of_int num_z) acc)
