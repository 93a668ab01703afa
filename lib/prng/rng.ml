type t = {
  gen : Xoshiro.t;
  (* Splitting is delegated to a SplitMix64 stream carried alongside the
     main generator, so child seeds never collide with output bits. *)
  splitter : Splitmix.t;
}

let m32 = 0xFFFFFFFF

let of_int64 seed =
  {
    gen = Xoshiro.create seed;
    splitter = Splitmix.create (Splitmix.mix (Int64.lognot seed));
  }

let create seed = of_int64 (Int64.of_int seed)

let split t =
  let child_seed = Splitmix.next_int64 t.splitter in
  of_int64 child_seed

(* In-place split: re-seed [child] with exactly the state [split t]
   would have built, drawing the same single word from [t]'s splitter —
   but without allocating the two generator records. The child's own
   splitter doubles as the SplitMix stream that seeds its xoshiro state
   (that is precisely what [Xoshiro.create] does with a fresh one), and
   is then re-pointed at mix(lognot child_seed), matching [of_int64]. *)
let split_into t child =
  Splitmix.next_pair t.splitter;
  let sh = Splitmix.out_hi t.splitter and sl = Splitmix.out_lo t.splitter in
  Splitmix.set_state child.splitter ~hi:sh ~lo:sl;
  Xoshiro.reseed child.gen child.splitter;
  (* splitter state := mix (lognot child_seed); lognot in the pair
     domain is xor with all-ones halves. *)
  Splitmix.mix_pair child.splitter ~hi:(sh lxor m32) ~lo:(sl lxor m32);
  Splitmix.set_state child.splitter
    ~hi:(Splitmix.out_hi child.splitter)
    ~lo:(Splitmix.out_lo child.splitter)

let split_n t k = Array.init k (fun _ -> split t)

(* A per-domain free list of scratch children for [split_into] loops:
   borrow once per chunk of work, re-seed in place once per trial. A
   free list (not a single cell) keeps nested borrowers safe. *)
let scratch_children = Domain.DLS.new_key (fun () -> ref [])

let borrow_child () =
  let cell = Domain.DLS.get scratch_children in
  match !cell with
  | [] -> create 0
  | r :: rest ->
      cell := rest;
      r

let release_child r =
  let cell = Domain.DLS.get scratch_children in
  cell := r :: !cell

let bits64 t = Xoshiro.next_int64 t.gen

(* The allocation-free draws below read the step output back as halves;
   [bits63] and [bits53] are the integer lattices behind [int] and
   [unit_float], exposed so samplers can hoist comparisons into the
   integer domain. *)

let[@inline] bits63 t =
  let g = t.gen in
  Xoshiro.step g;
  ((Xoshiro.out_hi g land 0x7FFFFFFF) lsl 32) lor Xoshiro.out_lo g

let[@inline] bits53 t =
  let g = t.gen in
  Xoshiro.step g;
  (Xoshiro.out_hi g lsl 21) lor (Xoshiro.out_lo g lsr 11)

(* Lemire's nearly-divisionless unbiased bounded generation, specialised to
   OCaml's 63-bit ints. We draw 64 bits, keep the low 63 (non-negative as an
   OCaml int), and reject into the unbiased range. *)

(* Both recursions are top-level, not local [let rec]s: without
   flambda a local recursive function capturing its environment is a
   fresh closure on every call — four to six minor words per draw on
   the hottest line in the tree. *)
let rec mask_covering m bound =
  if m >= bound - 1 then m else mask_covering ((m lsl 1) lor 1) bound

let mask_for bound = mask_covering 1 bound

let rec masked_int t ~mask ~bound =
  let v = bits63 t land mask in
  if v < bound then v else masked_int t ~mask ~bound

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Power-of-two mask covering the bound, then rejection: unbiased and
     fast (expected < 2 draws). *)
  masked_int t ~mask:(mask_for bound) ~bound

let ints_into t ~bound buf =
  if bound <= 0 then invalid_arg "Rng.ints_into: bound must be positive";
  let mask = mask_for bound in
  for i = 0 to Array.length buf - 1 do
    Array.unsafe_set buf i (masked_int t ~mask ~bound)
  done

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let[@inline] unit_float t =
  (* 53 random bits into [0,1). *)
  float_of_int (bits53 t) *. 0x1.0p-53

let unit_floats_into t buf =
  for i = 0 to Array.length buf - 1 do
    Array.unsafe_set buf i (float_of_int (bits53 t) *. 0x1.0p-53)
  done

let float t bound = bound *. unit_float t

let bool t =
  let g = t.gen in
  Xoshiro.step g;
  Xoshiro.out_lo g land 1 = 1

let sign t = if bool t then 1 else -1

let bernoulli t p =
  if p <= 0. then false else if p >= 1. then true else unit_float t < p

let binomial t n p =
  if n < 0 then invalid_arg "Rng.binomial: negative n";
  if p <= 0. then 0
  else if p >= 1. then n
  else if float_of_int n *. p < 32. then begin
    (* Waiting-time method: sum geometric gaps between successes. *)
    let log1mp = log1p (-.p) in
    let count = ref 0 and pos = ref 0 in
    let continue = ref true in
    while !continue do
      let u = 1. -. unit_float t in
      let gap = int_of_float (floor (log u /. log1mp)) in
      pos := !pos + gap + 1;
      if !pos <= n then incr count else continue := false
    done;
    !count
  end
  else begin
    (* Direct trial loop; only used when n*p is large and n is moderate in
       this project (players draw at most a few thousand samples). *)
    let count = ref 0 in
    for _ = 1 to n do
      if unit_float t < p then incr count
    done;
    !count
  end

let poisson t lambda =
  if lambda < 0. then invalid_arg "Rng.poisson: negative lambda";
  if lambda = 0. then 0
  else if lambda <= 30. then begin
    (* Knuth: count factors until the product of uniforms drops under
       e^-lambda. *)
    let limit = exp (-.lambda) in
    let rec go k prod =
      let prod = prod *. unit_float t in
      if prod <= limit then k else go (k + 1) prod
    in
    go 0 1.
  end
  else begin
    (* Normal approximation via Box-Muller, good to ~1% tail error at
       lambda > 30, ample for calibration workloads. *)
    let u1 = 1. -. unit_float t and u2 = unit_float t in
    let gauss = sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2) in
    max 0 (int_of_float (Float.round (lambda +. (sqrt lambda *. gauss))))
  end

let geometric t p =
  if p <= 0. || p > 1. then invalid_arg "Rng.geometric: p out of (0,1]";
  if p = 1. then 0
  else
    let u = 1. -. unit_float t in
    int_of_float (floor (log u /. log1p (-.p)))

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))

let rademacher_vector t m = Array.init m (fun _ -> sign t)

let rademacher_vector_into t z =
  for i = 0 to Array.length z - 1 do
    z.(i) <- sign t
  done
