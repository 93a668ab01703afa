type t = {
  pmf : Pmf.t;
  (* Vose's alias method: cell i holds a coin with probability prob.(i) of
     returning i, otherwise alias.(i). *)
  prob : float array;
  alias : int array;
  (* prob scaled by 2^53: [unit_float rng < prob.(i)] is decided as
     [float_of_int (bits53 rng) < scaled.(i)] — the same strict
     comparison after an exact power-of-two scaling of both sides
     (unit_float = bits53 * 2^-53 by definition), saving the division
     and the boxed-float round trip on every draw. *)
  scaled : float array;
  (* The rejection mask [Rng.int] would rebuild per call, hoisted. *)
  mask : int;
}

let of_pmf pmf =
  let n = Pmf.size pmf in
  let scaled = Array.init n (fun i -> Pmf.prob pmf i *. float_of_int n) in
  let prob = Array.make n 1. in
  let alias = Array.init n (fun i -> i) in
  (* Work lists of under- and over-full cells. *)
  let small = ref [] and large = ref [] in
  Array.iteri
    (fun i w -> if w < 1. then small := i :: !small else large := i :: !large)
    scaled;
  let rec pair () =
    match (!small, !large) with
    | s :: srest, l :: lrest ->
        small := srest;
        large := lrest;
        prob.(s) <- scaled.(s);
        alias.(s) <- l;
        scaled.(l) <- scaled.(l) +. scaled.(s) -. 1.;
        if scaled.(l) < 1. then small := l :: !small else large := l :: !large;
        pair ()
    | _, _ -> ()
  in
  pair ();
  (* Leftovers (numerical residue) keep prob = 1, aliasing to themselves. *)
  List.iter (fun i -> prob.(i) <- 1.) !small;
  List.iter (fun i -> prob.(i) <- 1.) !large;
  {
    pmf;
    prob;
    alias;
    scaled = Array.map (fun p -> p *. 0x1.0p53) prob;
    mask = Dut_prng.Rng.mask_for n;
  }

let draw t rng =
  let i = Dut_prng.Rng.masked_int rng ~mask:t.mask ~bound:(Array.length t.prob) in
  if float_of_int (Dut_prng.Rng.bits53 rng) < t.scaled.(i) then i
  else t.alias.(i)

(* The batched kernel: one bounds check up front, hoisted mask and
   table pointers, unsafe accesses inside. Draws exactly the stream a
   scalar [draw] loop would — same rejection sequence, same coin —
   just without the per-element closure or float boxing. *)
let draw_block t rng buf =
  let n = Array.length t.prob in
  let mask = t.mask in
  let scaled = t.scaled and alias = t.alias in
  for j = 0 to Array.length buf - 1 do
    let i = Dut_prng.Rng.masked_int rng ~mask ~bound:n in
    let i =
      if float_of_int (Dut_prng.Rng.bits53 rng) < Array.unsafe_get scaled i
      then i
      else Array.unsafe_get alias i
    in
    Array.unsafe_set buf j i
  done

let draw_many_into t rng buf = draw_block t rng buf

let draw_many t rng q =
  let buf = Array.make q 0 in
  draw_block t rng buf;
  buf

let pmf t = t.pmf
