type reduction = {
  n : int;
  eps : float;
  m : int;  (* flattened domain size *)
  copies : int array;  (* granules per element, sum = m *)
  offsets : int array;  (* start of element i's granule range *)
}

(* Largest-remainder apportionment of m granules proportionally to the
   mixed masses (p(i) + 1/n)/2. Every element gets at least one granule
   because its mixed mass is >= 1/(2n) and m >= 2n. *)
let apportion ~mixed ~m =
  let n = Array.length mixed in
  let exact = Array.map (fun w -> w *. float_of_int m) mixed in
  let floors = Array.map (fun x -> int_of_float (floor x)) exact in
  let assigned = Array.fold_left ( + ) 0 floors in
  let remainders =
    Array.mapi (fun i x -> (x -. float_of_int floors.(i), i)) exact
  in
  Array.sort (fun (a, _) (b, _) -> compare b a) remainders;
  let rec top_up k idx =
    if k = 0 then ()
    else begin
      let _, i = remainders.(idx mod n) in
      floors.(i) <- floors.(i) + 1;
      top_up (k - 1) (idx + 1)
    end
  in
  top_up (m - assigned) 0;
  floors

let make ~target ~eps =
  if eps <= 0. || eps >= 1. then invalid_arg "Identity.make: eps out of (0,1)";
  let n = Dut_dist.Pmf.size target in
  let m = int_of_float (ceil (8. *. float_of_int n /. eps)) in
  let mixed =
    Array.init n (fun i ->
        (Dut_dist.Pmf.prob target i +. (1. /. float_of_int n)) /. 2.)
  in
  let copies = apportion ~mixed ~m in
  let offsets = Array.make n 0 in
  for i = 1 to n - 1 do
    offsets.(i) <- offsets.(i - 1) + copies.(i - 1)
  done;
  { n; eps; m; copies; offsets }

let flattened_size r = r.m

let copies r = Array.copy r.copies

let map_sample r rng raw =
  if raw < 0 || raw >= r.n then invalid_arg "Identity.map_sample: sample out of range";
  (* Mixing step: with probability 1/2 substitute a uniform element. *)
  let i = if Dut_prng.Rng.bool rng then raw else Dut_prng.Rng.int rng r.n in
  r.offsets.(i) + Dut_prng.Rng.int rng r.copies.(i)

let test r target rng samples =
  if Dut_dist.Pmf.size target <> r.n then
    invalid_arg "Identity.test: target size mismatch";
  (* The collision tester on the flattened samples, each counted in
     the domain's scratch histogram as it is mapped, in index order:
     the draws of mapping the array first, with no mapped copy of the
     samples and no m-bucket histogram on the major heap per call.
     Raising a count from c - 1 to c adds c - 1 colliding pairs. *)
  let h = Dut_engine.Scratch.hist ~size:r.m in
  let collisions = ref 0 in
  Array.iter
    (fun raw ->
      collisions :=
        !collisions + Dut_engine.Scratch.bump h (map_sample r rng raw) - 1)
    samples;
  float_of_int !collisions
  < Collision.cutoff ~n:r.m ~m:(Array.length samples) ~eps:(r.eps /. 4.)

let recommended_samples ~n ~eps =
  let m = int_of_float (ceil (8. *. float_of_int n /. eps)) in
  Collision.recommended_samples ~n:m ~eps:(eps /. 4.)
