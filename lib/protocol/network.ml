type source = Dut_prng.Rng.t -> int

type player = index:int -> Dut_prng.Rng.t -> int array -> bool

type 'm messenger = index:int -> Dut_prng.Rng.t -> int array -> 'm

(* Per-player sample tuples live in per-domain scratch buffers: a
   uniform-q round borrows ONE q-word buffer and refills it k times,
   instead of allocating k fresh tuples per trial. Players receive the
   buffer only for the duration of their call (none retains it). *)
let fill_samples coins source q samples =
  for j = 0 to q - 1 do
    samples.(j) <- source coins
  done

(* [with_round_buffer] keeps the borrow/release exception-safe without
   a per-player closure. *)
let with_round_buffer q use =
  let samples = Dut_engine.Scratch.borrow ~len:q in
  let result =
    try use samples
    with e ->
      Dut_engine.Scratch.release samples;
      raise e
  in
  Dut_engine.Scratch.release samples;
  result

(* Per-player coins recycle ONE borrowed child source, re-seeded in
   place per player by [Rng.split_into] — the same child streams
   [Rng.split] would return, without the two fresh generator records
   per player. Players receive the coins only for the duration of their
   call (the same non-retention contract as the samples buffer). *)
let with_scratch_coins use =
  let coins = Dut_prng.Rng.borrow_child () in
  let result =
    try use coins
    with e ->
      Dut_prng.Rng.release_child coins;
      raise e
  in
  Dut_prng.Rng.release_child coins;
  result

let round_fold ~rng ~source ~k ~q ~messenger ~init ~f =
  if k <= 0 then invalid_arg "Network.round_fold: k must be positive";
  if q < 0 then invalid_arg "Network.round_fold: q must be non-negative";
  with_round_buffer q (fun samples ->
      with_scratch_coins (fun coins ->
          let acc = ref init in
          for i = 0 to k - 1 do
            Dut_prng.Rng.split_into rng coins;
            fill_samples coins source q samples;
            acc := f !acc (messenger ~index:i coins samples)
          done;
          !acc))

(* The counting referee: every rule's verdict is [ones >= accept_min],
   so the round folds votes into one integer — no vote vector. *)
let round_accept ~rng ~source ~k ~q ~player ~rule =
  let ones =
    round_fold ~rng ~source ~k ~q ~messenger:player ~init:0
      ~f:(fun ones accept -> ones + Bool.to_int accept)
  in
  ones >= Rule.accept_min rule ~k

let round_rates ~rng ~source ~qs ~messenger ~init ~f =
  if Array.length qs = 0 then invalid_arg "Network.round_rates: no players";
  Array.iter (fun q -> if q < 0 then invalid_arg "Network.round_rates: negative q") qs;
  (* Tuple lengths vary per player here (the async experiment), so each
     player borrows its own exact-length buffer. *)
  with_scratch_coins (fun coins ->
      let acc = ref init in
      Array.iteri
        (fun i q ->
          Dut_prng.Rng.split_into rng coins;
          with_round_buffer q (fun samples ->
              fill_samples coins source q samples;
              acc := f !acc (messenger ~index:i coins samples)))
        qs;
      !acc)

let of_sampler s rng = Dut_dist.Sampler.draw s rng

let of_paninski d rng = Dut_dist.Paninski.draw d rng

let uniform_source ~n =
  if n <= 0 then invalid_arg "Network.uniform_source: n must be positive";
  (* [Rng.int] with the rejection mask hoisted out of the closure:
     bit-identical draws, no per-sample mask rebuild. *)
  let mask = Dut_prng.Rng.mask_for n in
  fun rng -> Dut_prng.Rng.masked_int rng ~mask ~bound:n
