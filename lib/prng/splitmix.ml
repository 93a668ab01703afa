(* SplitMix64 with the 64-bit state held as two native-int 32-bit
   halves. Without flambda, every [Int64] intermediate is a 3-word heap
   box, so the original representation allocated ~10 boxes per draw —
   the dominant term in the Monte-Carlo minor-word profile. The pair
   representation does the same arithmetic on untagged-compare-free
   immediates: zero allocation per draw, bit-identical streams (the
   pure [Int64] helpers below stay as the executable specification and
   the tests compare the two word by word).

   Pair arithmetic conventions: each half lives in [0, 2^32); native
   products of 32-bit halves fit in 63-bit ints only after splitting
   into 16-bit limbs, except where we only need the result mod 2^32 —
   there the native multiply wraps mod 2^63 and [land 0xFFFFFFFF]
   recovers the exact low 32 bits. *)

type t = {
  mutable hi : int;  (* state bits 32..63 *)
  mutable lo : int;  (* state bits 0..31 *)
  (* Last mixed output, written by [next_pair] / [mix_pair]: reading
     results through fields instead of return values keeps every call
     allocation-free (no tuples, no boxed int64). *)
  mutable out_hi : int;
  mutable out_lo : int;
}

let m32 = 0xFFFFFFFF

(* The golden-gamma increment 0x9E3779B97F4A7C15, as 32-bit halves. *)
let gg_hi = 0x9E3779B9

let gg_lo = 0x7F4A7C15

let[@inline] lo32 (s : int64) = Int64.to_int (Int64.logand s 0xFFFFFFFFL)

let[@inline] hi32 (s : int64) = Int64.to_int (Int64.shift_right_logical s 32)

let[@inline] to_int64 ~hi ~lo =
  Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)

let create seed = { hi = hi32 seed; lo = lo32 seed; out_hi = 0; out_lo = 0 }

let copy t = { hi = t.hi; lo = t.lo; out_hi = t.out_hi; out_lo = t.out_lo }

let set_state t ~hi ~lo =
  t.hi <- hi;
  t.lo <- lo

let out_hi t = t.out_hi

let out_lo t = t.out_lo

(* Pure 64-bit reference output function: kept verbatim from the
   original implementation. It is the specification the pair kernel
   below is tested against, and remains the right tool for cold paths
   (seeding, splitting, hashing). *)

(* Stafford's "mix13" finalizer, the output function of SplitMix64. *)
let mix s =
  let s = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let s = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 27)) 0x94D049BB133111EBL in
  Int64.logxor s (Int64.shift_right_logical s 31)

(* mix13 multiplier constants as 32-bit halves. *)
let c1_hi = 0xBF58476D

let c1_lo = 0x1CE4E5B9

let c2_hi = 0x94D049BB

let c2_lo = 0x133111EB

(* mix13 on a half pair, result into [out_hi]/[out_lo]. The two 64-bit
   multiplies are schoolbook on 16-bit limbs for the low word; the high
   word only needs the cross products mod 2^32, where native wrap-around
   (mod 2^63) followed by masking is exact. *)
let mix_pair t ~hi ~lo =
  (* x ^= x >> 30 *)
  let l = lo lxor (((lo lsr 30) lor (hi lsl 2)) land m32)
  and h = hi lxor (hi lsr 30) in
  (* x *= 0xBF58476D1CE4E5B9 *)
  let a0 = l land 0xFFFF and a1 = l lsr 16 in
  let ll = a0 * 0xE5B9 and lh = a0 * 0x1CE4 and hl = a1 * 0xE5B9 in
  let mid = lh + hl + (ll lsr 16) in
  let l' = ((mid land 0xFFFF) lsl 16) lor (ll land 0xFFFF) in
  let h' = ((a1 * 0x1CE4) + (mid lsr 16) + (l * c1_hi) + (h * c1_lo)) land m32 in
  (* x ^= x >> 27 *)
  let l = l' lxor (((l' lsr 27) lor (h' lsl 5)) land m32)
  and h = h' lxor (h' lsr 27) in
  (* x *= 0x94D049BB133111EB *)
  let a0 = l land 0xFFFF and a1 = l lsr 16 in
  let ll = a0 * 0x11EB and lh = a0 * 0x1331 and hl = a1 * 0x11EB in
  let mid = lh + hl + (ll lsr 16) in
  let l' = ((mid land 0xFFFF) lsl 16) lor (ll land 0xFFFF) in
  let h' = ((a1 * 0x1331) + (mid lsr 16) + (l * c2_hi) + (h * c2_lo)) land m32 in
  (* x ^= x >> 31 *)
  t.out_lo <- l' lxor (((l' lsr 31) lor (h' lsl 1)) land m32);
  t.out_hi <- h' lxor (h' lsr 31)

let next_pair t =
  (* state += golden_gamma *)
  let l = t.lo + gg_lo in
  t.hi <- (t.hi + gg_hi + (l lsr 32)) land m32;
  t.lo <- l land m32;
  mix_pair t ~hi:t.hi ~lo:t.lo

let next_int64 t =
  next_pair t;
  to_int64 ~hi:t.out_hi ~lo:t.out_lo

(* For splitting we use a second finalizer on the advanced state so the
   child's seed is decorrelated from the parent's output at the same
   state. *)
let mix_gamma s =
  let g = Int64.logor (mix (Int64.logxor s 0xA5A5A5A5A5A5A5A5L)) 1L in
  g

let split t =
  let seed = next_int64 t in
  (* t.state <- t.state + golden_gamma, in the pair domain. *)
  let l = t.lo + gg_lo in
  t.hi <- (t.hi + gg_hi + (l lsr 32)) land m32;
  t.lo <- l land m32;
  let gamma_source = mix_gamma (to_int64 ~hi:t.hi ~lo:t.lo) in
  create (Int64.logxor seed gamma_source)
