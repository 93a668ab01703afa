(* The project-wide generator: xoshiro256++ (Blackman & Vigna 2019) for
   draws, seeded and split through SplitMix64 (Steele, Lea & Flood
   2014). A generator's whole state is one 40-byte buffer: the xoshiro
   words s0..s3 at offsets 0, 8, 16 and 24, and the SplitMix64 word of
   its splitter at 32. The [%caml_bytes_get64u]/[%caml_bytes_set64u]
   primitives load and store those words unboxed, so the arithmetic
   below runs in native 64-bit registers.

   Without flambda an [int64] stays unboxed only while it crosses no
   call that is not inlined, and dune's dev profile compiles with
   [-opaque], under which no call into another module is inlined. So
   every hot [int64] lives and dies in this module, passed between
   [@inline] helpers, and leaves it as an [int], a [float] or a [bool].
   [Int64.equal], [compare] and [unsigned_rem] are stdlib functions
   over boxed values; comparisons here are typed [=]/[>=] on [int64]
   instead, and the one unsigned remainder is spelled out. *)

type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let splitter = 32

(* SplitMix64's golden-gamma increment. *)
let golden = 0x9E3779B97F4A7C15L

(* Stafford's "mix13" finalizer, the output function of SplitMix64. *)
let[@inline] mix13 z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let mix z = mix13 z

(* Seed [t] from [seed]: the xoshiro words are the first four outputs
   of a SplitMix64 stream started at [seed] (the all-zero state, which
   no known seed reaches, falls back to (1, 0, 0, 0)), and the splitter
   word is mix13 (lognot seed). *)
let[@inline] seed_into t seed =
  let z0 = Int64.add seed golden in
  let z1 = Int64.add z0 golden in
  let z2 = Int64.add z1 golden in
  let z3 = Int64.add z2 golden in
  let s0 = mix13 z0 and s1 = mix13 z1 and s2 = mix13 z2 and s3 = mix13 z3 in
  let zero = Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L in
  set t 0 (if zero then 1L else s0);
  set t 8 s1;
  set t 16 s2;
  set t 24 s3;
  set t splitter (mix13 (Int64.logxor seed (-1L)))

(* The next SplitMix64 output of [t]'s splitter: a child's seed. *)
let[@inline] child_seed t =
  let z = Int64.add (get t splitter) golden in
  set t splitter z;
  mix13 z

let create seed =
  let t = Bytes.create 40 in
  seed_into t (Int64.of_int seed);
  t

let split t =
  let child = Bytes.create 40 in
  seed_into child (child_seed t);
  child

(* In place: the state [split t] would build, from the same single
   splitter word, without allocating. *)
let split_into t child = seed_into child (child_seed t)

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

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256++ step: the output is rotl(s0 + s3, 23) + s0, then
   the linear state transition. *)
let[@inline] next t =
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let result = Int64.add (rotl (Int64.add s0 s3) 23) s0 in
  let s2 = Int64.logxor s2 s0 and s3 = Int64.logxor s3 s1 in
  set t 0 (Int64.logxor s0 s3);
  set t 8 (Int64.logxor s1 s2);
  set t 16 (Int64.logxor s2 (Int64.shift_left s1 17));
  set t 24 (rotl s3 45);
  result

let bits64 t = next t

(* [bits63] (the low 63 bits, as [Int64.to_int] keeps them) and
   [bits53] (the top 53) are the integer lattices behind [int] and
   [unit_float]; [bits53] is exported so samplers can compare in the
   integer domain. *)
let[@inline] bits63 t = Int64.to_int (next t)

let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (next t) 11)

let bool t = Int64.to_int (next t) land 1 = 1

(* The stream sketches' salted hashes, here beside [mix13] so that no
   [int64] crosses into the sketch per sample: [salt] arrives as the
   sketch's own box and the results leave as [int]s. *)
let hash_bucket salt x m =
  let h = mix13 (Int64.logxor salt (Int64.of_int x)) in
  let m = Int64.of_int m in
  (* [h] read as unsigned, modulo [m] > 0: halve, divide, double, and
     the remainder left lies in [0, 2m). *)
  let q = Int64.shift_left (Int64.div (Int64.shift_right_logical h 1) m) 1 in
  let r = Int64.sub h (Int64.mul q m) in
  if r >= m then Int64.to_int (Int64.sub r m) else Int64.to_int r

let hash_sign salt k x =
  let key =
    Int64.logxor
      (Int64.add salt (Int64.mul (Int64.of_int (k + 1)) golden))
      (Int64.of_int x)
  in
  if Int64.to_int (mix13 key) land 1 = 0 then 1 else -1

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
