(* HDR-style log2 histogram over non-negative integers.

   Values 0..15 land in exact unit buckets. Every larger value lands in
   one of 16 sub-buckets of its octave [2^m, 2^(m+1)): the sub-bucket
   index is the 4 bits below the leading bit, so relative resolution is
   bounded by 1/16 everywhere. The bucket array is a plain dense
   [int array]; merge is pointwise sum, which is exactly associative
   and commutative — the property the per-domain Metrics tables rely on
   to make snapshots independent of the merge order at pool join.

   59 octaves cover every OCaml native int (up to 2^62), so [record]
   never needs a range check beyond clamping negatives to 0. *)

let sub_bits = 4
let subs = 16
let octaves = 59
let buckets = subs + (octaves * subs)

(* [counts] covers buckets [0 .. length-1]; every bucket past its end
   is zero. It is all [buckets] long except in a [compact] copy, which
   grows back to full length if recorded or merged into. *)
type t = { mutable counts : int array }

let create () = { counts = Array.make buckets 0 }
let copy t = { counts = Array.copy t.counts }
let clear t = Array.fill t.counts 0 (Array.length t.counts) 0
let get t b = if b < Array.length t.counts then t.counts.(b) else 0

let reserve t len =
  let have = Array.length t.counts in
  if have < len then begin
    let a = Array.make len 0 in
    Array.blit t.counts 0 a 0 have;
    t.counts <- a
  end

(* One past the highest non-empty bucket of [counts]. *)
let used counts =
  let rec go b = if b < 0 then 0 else if counts.(b) <> 0 then b + 1 else go (b - 1) in
  go (Array.length counts - 1)

let compact t =
  let c = t.counts in
  { counts = Array.sub c 0 (used c) }

(* Index of the highest set bit; [v >= 1]. *)
let msb v =
  let v = ref v and r = ref 0 in
  if !v lsr 32 <> 0 then (
    r := !r + 32;
    v := !v lsr 32);
  if !v lsr 16 <> 0 then (
    r := !r + 16;
    v := !v lsr 16);
  if !v lsr 8 <> 0 then (
    r := !r + 8;
    v := !v lsr 8);
  if !v lsr 4 <> 0 then (
    r := !r + 4;
    v := !v lsr 4);
  if !v lsr 2 <> 0 then (
    r := !r + 2;
    v := !v lsr 2);
  if !v lsr 1 <> 0 then incr r;
  !r

let bucket_of v =
  let v = if v < 0 then 0 else v in
  if v < subs then v
  else
    (* Octave 1 is [16, 32): [m - sub_bits] is 1-based exactly like the
       octave recovered by [bucket_lo]'s [1 + (b - subs) / subs]. *)
    let m = msb v in
    let octave = m - sub_bits + 1 in
    let sub = (v lsr (m - sub_bits)) land (subs - 1) in
    subs + ((octave - 1) * subs) + sub

let bucket_lo b =
  if b < 0 then invalid_arg "Histogram.bucket_lo";
  if b < subs then b
  else
    let octave = 1 + ((b - subs) / subs) and sub = (b - subs) mod subs in
    (subs + sub) lsl (octave - 1)

let bucket_hi b =
  if b < subs then b
  else
    let octave = 1 + ((b - subs) / subs) in
    bucket_lo b + (1 lsl (octave - 1)) - 1

let record t v =
  let b = bucket_of v in
  if b >= Array.length t.counts then reserve t buckets;
  t.counts.(b) <- t.counts.(b) + 1

let count t = Array.fold_left ( + ) 0 t.counts
let is_empty t = count t = 0

let merge_into ~into src =
  let c = src.counts in
  let n = used c in
  reserve into n;
  for b = 0 to n - 1 do
    into.counts.(b) <- into.counts.(b) + c.(b)
  done

let merge a b =
  let t = copy a in
  merge_into ~into:t b;
  t

(* [newer] minus [older], for interval stats (e.g. one service batch out
   of a session-long histogram). Clamped at zero so a snapshot pair read
   without mutual exclusion can never produce negative counts. *)
let diff newer older =
  let t = create () in
  for b = 0 to buckets - 1 do
    t.counts.(b) <- max 0 (get newer b - get older b)
  done;
  t

let equal a b =
  let rec go i = i < 0 || (get a i = get b i && go (i - 1)) in
  go (max (Array.length a.counts) (Array.length b.counts) - 1)

(* Smallest bucket whose cumulative count reaches rank ceil(q*n): the
   bucket holding the exact q-quantile of the recorded multiset, so the
   exact quantile always lies within [bucket_lo b, bucket_hi b]. *)
let quantile_bucket t q =
  if not (q >= 0. && q <= 1.) then invalid_arg "Histogram.quantile_bucket";
  let n = count t in
  if n = 0 then None
  else
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    let rank = if rank < 1 then 1 else if rank > n then n else rank in
    let rec go b acc =
      let acc = acc + get t b in
      if acc >= rank then b else go (b + 1) acc
    in
    Some (go 0 0)

let quantile t q =
  match quantile_bucket t q with
  | None -> None
  | Some b -> Some ((bucket_lo b + bucket_hi b) / 2)

(* Upper bound of the highest non-empty bucket: a conservative (never
   under-reporting) estimate of the largest recorded value. *)
let max_value t =
  let rec go b = if b < 0 then None else if t.counts.(b) > 0 then Some (bucket_hi b) else go (b - 1) in
  go (Array.length t.counts - 1)

let q_or_zero t q = match quantile t q with Some v -> v | None -> 0

(* Sparse [[bucket, count], ...] pairs: the exact bucket contents, so a
   histogram serialised in one process and merged in another loses
   nothing — fleet aggregation over per-shard summaries depends on
   round-tripping being lossless. *)
let to_json t =
  let pairs = ref [] in
  for b = Array.length t.counts - 1 downto 0 do
    if t.counts.(b) > 0 then
      pairs := Json.Arr [ Json.int b; Json.int t.counts.(b) ] :: !pairs
  done;
  Json.Arr !pairs

let of_json j =
  let t = create () in
  (match j with
  | Json.Arr pairs ->
      List.iter
        (fun pair ->
          match pair with
          | Json.Arr [ Json.Num b; Json.Num c ]
            when Float.is_integer b && Float.is_integer c ->
              let b = int_of_float b and c = int_of_float c in
              if b < 0 || b >= buckets || c < 0 then
                raise (Json.Malformed "histogram: bucket out of range");
              t.counts.(b) <- t.counts.(b) + c
          | _ -> raise (Json.Malformed "histogram: expected [bucket, count]"))
        pairs
  | _ -> raise (Json.Malformed "histogram: expected an array"));
  t

let summary_json t =
  let n = count t in
  if n = 0 then Json.Obj [ ("count", Json.Num 0.) ]
  else
    Json.Obj
      [
        ("count", Json.Num (float_of_int n));
        ("p50", Json.Num (float_of_int (q_or_zero t 0.5)));
        ("p90", Json.Num (float_of_int (q_or_zero t 0.9)));
        ("p95", Json.Num (float_of_int (q_or_zero t 0.95)));
        ("p99", Json.Num (float_of_int (q_or_zero t 0.99)));
        ( "max",
          Json.Num (float_of_int (match max_value t with Some v -> v | None -> 0)) );
      ]
