(* Tests for the dut_prng library: generator determinism, splitting,
   bounded draws, and the distributional sanity of the samplers. *)

open Dut_prng

let check_float = Alcotest.(check (float 1e-9))

(* -- Splitmix: the splitter stream and its finalizer ----------------- *)

let test_splitmix_deterministic () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same children"
      (Rng.bits64 (Rng.split a))
      (Rng.bits64 (Rng.split b))
  done

let test_splitmix_seed_sensitivity () =
  let a = Rng.split (Rng.create 1) and b = Rng.split (Rng.create 2) in
  Alcotest.(check bool) "different seeds differ" true
    (Rng.bits64 a <> Rng.bits64 b)

let test_splitmix_mix_nonzero () =
  (* mix is a bijection-ish finalizer; it should not collapse small inputs. *)
  let outs = List.init 64 (fun i -> Rng.mix (Int64.of_int i)) in
  let distinct = List.sort_uniq compare outs in
  Alcotest.(check int) "64 distinct outputs" 64 (List.length distinct)

let test_splitmix_split_diverges () =
  let a = Rng.create 99 in
  let child = Rng.split a in
  let xa = Rng.bits64 a and xc = Rng.bits64 child in
  Alcotest.(check bool) "parent and child streams differ" true (xa <> xc)

(* -- Xoshiro: the draw stream ---------------------------------------- *)

let test_xoshiro_deterministic () =
  let a = Rng.create 5 and b = Rng.create 5 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

(* -- Rng ------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 1 and b = Rng.create 1 in
  for _ = 1 to 50 do
    Alcotest.(check int) "same ints" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_int_bounds () =
  let rng = Rng.create 2 in
  List.iter
    (fun bound ->
      for _ = 1 to 1000 do
        let v = Rng.int rng bound in
        if v < 0 || v >= bound then
          Alcotest.failf "Rng.int %d returned %d" bound v
      done)
    [ 1; 2; 3; 7; 100; 1023; 1024; 1025 ]

let test_rng_int_invalid () =
  let rng = Rng.create 3 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_int_in () =
  let rng = Rng.create 4 in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng (-5) 5 in
    if v < -5 || v > 5 then Alcotest.failf "int_in out of range: %d" v
  done

let test_rng_int_covers_all_values () =
  let rng = Rng.create 5 in
  let seen = Array.make 8 false in
  for _ = 1 to 2000 do
    seen.(Rng.int rng 8) <- true
  done;
  Alcotest.(check bool) "all 8 values seen" true (Array.for_all Fun.id seen)

let test_rng_unit_float_range () =
  let rng = Rng.create 6 in
  for _ = 1 to 10000 do
    let x = Rng.unit_float rng in
    if x < 0. || x >= 1. then Alcotest.failf "unit_float out of range: %f" x
  done

let test_rng_unit_float_mean () =
  let rng = Rng.create 7 in
  let total = ref 0. in
  let trials = 100000 in
  for _ = 1 to trials do
    total := !total +. Rng.unit_float rng
  done;
  let mean = !total /. float_of_int trials in
  Alcotest.(check bool) "mean near 1/2" true (Float.abs (mean -. 0.5) < 0.01)

let test_rng_split_independence () =
  (* Children must not mirror the parent or each other. *)
  let parent = Rng.create 8 in
  let c1 = Rng.split parent and c2 = Rng.split parent in
  let s1 = Array.init 20 (fun _ -> Rng.bits64 c1) in
  let s2 = Array.init 20 (fun _ -> Rng.bits64 c2) in
  Alcotest.(check bool) "children differ" true (s1 <> s2)

let test_rng_split_n () =
  let rng = Rng.create 9 in
  let children = Rng.split_n rng 10 in
  Alcotest.(check int) "10 children" 10 (Array.length children);
  let firsts = Array.map (fun c -> Rng.bits64 c) children in
  let distinct = Array.to_list firsts |> List.sort_uniq compare in
  Alcotest.(check int) "children start differently" 10 (List.length distinct)

let test_bernoulli_extremes () =
  let rng = Rng.create 10 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Rng.bernoulli rng 0.);
    Alcotest.(check bool) "p=1 always" true (Rng.bernoulli rng 1.)
  done

let test_bernoulli_mean () =
  let rng = Rng.create 11 in
  let count = ref 0 in
  let trials = 50000 in
  for _ = 1 to trials do
    if Rng.bernoulli rng 0.3 then incr count
  done;
  let mean = float_of_int !count /. float_of_int trials in
  Alcotest.(check bool) "mean near 0.3" true (Float.abs (mean -. 0.3) < 0.01)

let test_binomial_support () =
  let rng = Rng.create 12 in
  for _ = 1 to 1000 do
    let v = Rng.binomial rng 20 0.4 in
    if v < 0 || v > 20 then Alcotest.failf "binomial out of support: %d" v
  done

let test_binomial_mean () =
  let rng = Rng.create 13 in
  let total = ref 0 in
  let trials = 20000 in
  for _ = 1 to trials do
    total := !total + Rng.binomial rng 50 0.2
  done;
  let mean = float_of_int !total /. float_of_int trials in
  Alcotest.(check bool) "mean near np=10" true (Float.abs (mean -. 10.) < 0.2)

let test_binomial_extremes () =
  let rng = Rng.create 14 in
  Alcotest.(check int) "p=0" 0 (Rng.binomial rng 100 0.);
  Alcotest.(check int) "p=1" 100 (Rng.binomial rng 100 1.);
  Alcotest.(check int) "n=0" 0 (Rng.binomial rng 0 0.5)

let test_poisson_moments () =
  let rng = Rng.create 25 in
  List.iter
    (fun lambda ->
      let trials = 30000 in
      let total = ref 0 and total_sq = ref 0 in
      for _ = 1 to trials do
        let v = Rng.poisson rng lambda in
        total := !total + v;
        total_sq := !total_sq + (v * v)
      done;
      let mean = float_of_int !total /. float_of_int trials in
      let var = (float_of_int !total_sq /. float_of_int trials) -. (mean *. mean) in
      (* Mean and variance both equal lambda. *)
      if Float.abs (mean -. lambda) > 0.05 *. (lambda +. 1.) then
        Alcotest.failf "poisson(%f) mean %f" lambda mean;
      if Float.abs (var -. lambda) > 0.1 *. (lambda +. 1.) then
        Alcotest.failf "poisson(%f) variance %f" lambda var)
    [ 0.5; 3.; 20.; 100. ]

let test_poisson_extremes () =
  let rng = Rng.create 26 in
  Alcotest.(check int) "lambda 0" 0 (Rng.poisson rng 0.);
  Alcotest.check_raises "negative" (Invalid_argument "Rng.poisson: negative lambda")
    (fun () -> ignore (Rng.poisson rng (-1.)))

let test_geometric_mean () =
  let rng = Rng.create 15 in
  let total = ref 0 in
  let trials = 20000 in
  for _ = 1 to trials do
    total := !total + Rng.geometric rng 0.25
  done;
  (* mean of failures-before-success = (1-p)/p = 3 *)
  let mean = float_of_int !total /. float_of_int trials in
  Alcotest.(check bool) "mean near 3" true (Float.abs (mean -. 3.) < 0.15)

let test_geometric_p1 () =
  let rng = Rng.create 16 in
  for _ = 1 to 100 do
    Alcotest.(check int) "p=1 is 0" 0 (Rng.geometric rng 1.)
  done

let test_geometric_invalid () =
  let rng = Rng.create 17 in
  Alcotest.check_raises "p=0" (Invalid_argument "Rng.geometric: p out of (0,1]")
    (fun () -> ignore (Rng.geometric rng 0.))

let test_shuffle_is_permutation () =
  let rng = Rng.create 18 in
  let a = Array.init 100 Fun.id in
  Rng.shuffle_in_place rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 100 Fun.id) sorted

let test_shuffle_moves_things () =
  let rng = Rng.create 19 in
  let a = Array.init 100 Fun.id in
  Rng.shuffle_in_place rng a;
  Alcotest.(check bool) "not identity" true (a <> Array.init 100 Fun.id)

let test_choose () =
  let rng = Rng.create 20 in
  let a = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    let v = Rng.choose rng a in
    Alcotest.(check bool) "element of array" true (Array.mem v a)
  done

let test_choose_empty () =
  let rng = Rng.create 21 in
  Alcotest.check_raises "empty" (Invalid_argument "Rng.choose: empty array")
    (fun () -> ignore (Rng.choose rng [||]))

let test_sign_balance () =
  let rng = Rng.create 22 in
  let total = ref 0 in
  for _ = 1 to 10000 do
    total := !total + Rng.sign rng
  done;
  Alcotest.(check bool) "signs balance" true (abs !total < 300)

let test_rademacher_vector () =
  let rng = Rng.create 23 in
  let v = Rng.rademacher_vector rng 256 in
  Alcotest.(check int) "length" 256 (Array.length v);
  Array.iter
    (fun s -> Alcotest.(check bool) "entries +-1" true (s = 1 || s = -1))
    v

let test_float_bound () =
  let rng = Rng.create 24 in
  for _ = 1 to 1000 do
    let x = Rng.float rng 3.5 in
    if x < 0. || x >= 3.5 then Alcotest.failf "float out of range: %f" x
  done;
  check_float "float 0 bound" 0. (Rng.float rng 0.)

(* -- The generator pair vs the Int64 references ------------------------ *)

(* Textbook mix13 and splitmix64, kept in Int64 the whole way: the
   references [Rng]'s kernel, a xoshiro256++ generator paired with a
   SplitMix64 splitter in one byte buffer, must match word for word
   across seeds (carries, multiplies and shifts across all 64 bits). *)
let mix_ref z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let splitmix_ref seed =
  let state = ref seed in
  fun () ->
    state := Int64.add !state 0x9E3779B97F4A7C15L;
    mix_ref !state

let rotl64 x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* Textbook xoshiro256++ in Int64, seeded as [Rng] seeds a generator:
   four splitmix64 words (all-zero guarded to s0 = 1). *)
let xoshiro_ref seed =
  let sm = splitmix_ref seed in
  let s = Array.init 4 (fun _ -> sm ()) in
  if Array.for_all (Int64.equal 0L) s then s.(0) <- 1L;
  fun () ->
    let result = Int64.add (rotl64 (Int64.add s.(0) s.(3)) 23) s.(0) in
    let t = Int64.shift_left s.(1) 17 in
    s.(2) <- Int64.logxor s.(2) s.(0);
    s.(3) <- Int64.logxor s.(3) s.(1);
    s.(1) <- Int64.logxor s.(1) s.(2);
    s.(0) <- Int64.logxor s.(0) s.(3);
    s.(2) <- Int64.logxor s.(2) t;
    s.(3) <- rotl64 s.(3) 45;
    result

let kernel_seeds = [ 0; 1; -1; 123456789; 0xDEADBEEF; min_int; max_int ]

let check_words label t next =
  for i = 1 to 500 do
    Alcotest.(check int64) (Printf.sprintf "%s word %d" label i) (next ())
      (Rng.bits64 t)
  done

(* A root's splitter is a SplitMix64 stream started at
   mix13 (lognot seed), and split child i is the generator seeded with
   its word i: checked on 500 children (split and split_into
   alternating) through their first word, and on two of them through
   500 words. *)
let test_splitmix_matches_int64_reference () =
  let scratch = Rng.create 0 in
  List.iter
    (fun seed ->
      let root = Rng.create seed in
      let words = splitmix_ref (mix_ref (Int64.lognot (Int64.of_int seed))) in
      for c = 1 to 500 do
        let w = words () in
        Alcotest.(check int64) (Printf.sprintf "mix of word %d" c) (mix_ref w)
          (Rng.mix w);
        let child =
          if c land 1 = 1 then Rng.split root
          else begin
            Rng.split_into root scratch;
            scratch
          end
        in
        let next = xoshiro_ref w in
        let label = Printf.sprintf "seed %d child %d" seed c in
        if c <= 2 then check_words label child next
        else Alcotest.(check int64) label (next ()) (Rng.bits64 child)
      done)
    kernel_seeds

let test_xoshiro_matches_int64_reference () =
  List.iter
    (fun seed ->
      check_words
        (Printf.sprintf "seed %d" seed)
        (Rng.create seed)
        (xoshiro_ref (Int64.of_int seed)))
    kernel_seeds

let test_unit_float_is_bits53_lattice () =
  (* unit_float is the 53-bit integer lattice scaled by 2^-53 — the
     identity the samplers' integer-compare fast paths rely on. *)
  let a = Rng.create 31 and b = Rng.create 31 in
  for _ = 1 to 2000 do
    check_float "lattice point"
      (float_of_int (Rng.bits53 b) *. 0x1.0p-53)
      (Rng.unit_float a)
  done

let test_borrow_child_streams_like_split () =
  let a = Rng.create 77 and b = Rng.create 77 in
  let c1 = Rng.split a in
  let c2 = Rng.borrow_child () in
  Rng.split_into b c2;
  let s1 = Array.init 10 (fun _ -> Rng.bits64 c1) in
  let s2 = Array.init 10 (fun _ -> Rng.bits64 c2) in
  Rng.release_child c2;
  Alcotest.(check (array int64)) "borrowed child streams like split" s1 s2

(* -- qcheck properties ---------------------------------------------- *)

let prop_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int always within bounds" ~count:500
    QCheck.(pair small_int (int_bound 1000))
    (fun (seed, b) ->
      let bound = b + 1 in
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_split_deterministic =
  QCheck.Test.make ~name:"splitting is deterministic in the seed" ~count:200
    QCheck.small_int (fun seed ->
      let mk () =
        let r = Rng.create seed in
        let c = Rng.split r in
        (Rng.bits64 r, Rng.bits64 c)
      in
      mk () = mk ())

let prop_ints_into_equals_scalar =
  (* Same values AND the same post-state (checked through bits64): the
     batched fill consumes exactly the draws the scalar loop would. *)
  QCheck.Test.make ~name:"ints_into = scalar int loop" ~count:300
    QCheck.(triple small_int (int_range 1 2000) (int_range 0 300))
    (fun (seed, bound, len) ->
      let a = Rng.create seed and b = Rng.create seed in
      let buf = Array.make len 0 in
      Rng.ints_into a ~bound buf;
      let expected = Array.init len (fun _ -> Rng.int b bound) in
      expected = buf && Rng.bits64 a = Rng.bits64 b)

let prop_unit_floats_into_equals_scalar =
  QCheck.Test.make ~name:"unit_floats_into = scalar unit_float loop"
    ~count:300
    QCheck.(pair small_int (int_range 0 300))
    (fun (seed, len) ->
      let a = Rng.create seed and b = Rng.create seed in
      let buf = Array.make len 0. in
      Rng.unit_floats_into a buf;
      let expected = Array.init len (fun _ -> Rng.unit_float b) in
      expected = buf && Rng.bits64 a = Rng.bits64 b)

let prop_split_into_equals_split =
  (* Reseeding a scratch child in place must give the stream a fresh
     [split] would, twice in a row, and leave the parent identical. *)
  QCheck.Test.make ~name:"split_into = split (children and parent)" ~count:200
    QCheck.small_int (fun seed ->
      let a = Rng.create seed and b = Rng.create seed in
      let scratch = Rng.create 0 in
      let round () =
        let fresh = Rng.split a in
        Rng.split_into b scratch;
        Array.init 30 (fun _ -> Rng.bits64 fresh)
        = Array.init 30 (fun _ -> Rng.bits64 scratch)
      in
      round () && round () && Rng.bits64 a = Rng.bits64 b)

let prop_hashes_equal_int64_reference =
  (* The sketches' hashes, against the [Int64] code they replaced:
     any salt, any sample, buckets from 1 to max_int. *)
  QCheck.Test.make ~name:"hash_bucket/hash_sign = Int64 references"
    ~count:1000
    QCheck.(quad int64 int (int_range 1 max_int) small_nat)
    (fun (salt, x, m, k) ->
      let h = mix_ref (Int64.logxor salt (Int64.of_int x)) in
      let key =
        Int64.logxor
          (Int64.add salt (Int64.mul (Int64.of_int (k + 1)) 0x9E3779B97F4A7C15L))
          (Int64.of_int x)
      in
      Rng.hash_bucket salt x m
      = Int64.to_int (Int64.unsigned_rem h (Int64.of_int m))
      && Rng.hash_sign salt k x
         = if Int64.equal (Int64.logand (mix_ref key) 1L) 0L then 1 else -1)

let () =
  Alcotest.run "dut_prng"
    [
      ( "splitmix",
        [
          Alcotest.test_case "deterministic" `Quick test_splitmix_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_splitmix_seed_sensitivity;
          Alcotest.test_case "mix injective on small ints" `Quick test_splitmix_mix_nonzero;
          Alcotest.test_case "split diverges" `Quick test_splitmix_split_diverges;
        ] );
      ( "xoshiro",
        [ Alcotest.test_case "deterministic" `Quick test_xoshiro_deterministic ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "int_in" `Quick test_rng_int_in;
          Alcotest.test_case "int covers all values" `Quick test_rng_int_covers_all_values;
          Alcotest.test_case "unit_float range" `Quick test_rng_unit_float_range;
          Alcotest.test_case "unit_float mean" `Quick test_rng_unit_float_mean;
          Alcotest.test_case "split independence" `Quick test_rng_split_independence;
          Alcotest.test_case "split_n" `Quick test_rng_split_n;
          Alcotest.test_case "float bound" `Quick test_float_bound;
        ] );
      ( "samplers",
        [
          Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
          Alcotest.test_case "bernoulli mean" `Quick test_bernoulli_mean;
          Alcotest.test_case "binomial support" `Quick test_binomial_support;
          Alcotest.test_case "binomial mean" `Quick test_binomial_mean;
          Alcotest.test_case "binomial extremes" `Quick test_binomial_extremes;
          Alcotest.test_case "poisson moments" `Quick test_poisson_moments;
          Alcotest.test_case "poisson extremes" `Quick test_poisson_extremes;
          Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
          Alcotest.test_case "geometric p=1" `Quick test_geometric_p1;
          Alcotest.test_case "geometric invalid" `Quick test_geometric_invalid;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_is_permutation;
          Alcotest.test_case "shuffle moves" `Quick test_shuffle_moves_things;
          Alcotest.test_case "choose" `Quick test_choose;
          Alcotest.test_case "choose empty" `Quick test_choose_empty;
          Alcotest.test_case "sign balance" `Quick test_sign_balance;
          Alcotest.test_case "rademacher vector" `Quick test_rademacher_vector;
        ] );
      ( "pair kernel",
        [
          Alcotest.test_case "splitmix matches Int64 reference" `Quick
            test_splitmix_matches_int64_reference;
          Alcotest.test_case "xoshiro matches Int64 reference" `Quick
            test_xoshiro_matches_int64_reference;
          Alcotest.test_case "unit_float is the bits53 lattice" `Quick
            test_unit_float_is_bits53_lattice;
          Alcotest.test_case "borrowed child streams like split" `Quick
            test_borrow_child_streams_like_split;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_int_in_bounds; prop_split_deterministic;
            prop_ints_into_equals_scalar; prop_unit_floats_into_equals_scalar;
            prop_split_into_equals_split; prop_hashes_equal_int64_reference;
          ] );
    ]
