type source = Dut_prng.Rng.t -> int

type player = index:int -> Dut_prng.Rng.t -> int array -> bool

type 'm messenger = index:int -> Dut_prng.Rng.t -> int array -> 'm

type transcript = { votes : bool array; accept : bool }

(* Per-player sample tuples live in per-domain scratch buffers: the
   uniform-q rounds borrow ONE q-word buffer per round and refill it k
   times, instead of allocating k fresh tuples per trial. The draws —
   and therefore every vote — are identical to the allocating path;
   players receive the buffer only for the duration of their call (none
   retains it). *)
let fill_samples coins source q samples =
  for j = 0 to q - 1 do
    samples.(j) <- source coins
  done

(* Uniform-q rounds share this shape: borrow once, split per-player
   coins in index order, refill, act. [with_round_buffer] keeps the
   borrow/release exception-safe without a per-player closure. *)
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

(* On the uniform-q rounds, per-player coins recycle ONE borrowed child
   source, re-seeded in place per player by [Rng.split_into] — the same
   child streams [Rng.split] would return, without the two fresh
   generator records per player. Players receive the coins only for the
   duration of their call (the same non-retention contract as the
   samples buffer). *)
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

let round_rates ~rng ~source ~qs ~player ~rule =
  let k = Array.length qs in
  if k <= 0 then invalid_arg "Network.round_rates: no players";
  Array.iter (fun q -> if q < 0 then invalid_arg "Network.round_rates: negative q") qs;
  (* Tuple lengths vary per player here (the async experiment), so each
     player borrows its own exact-length buffer. *)
  let votes =
    Array.init k (fun i ->
        let coins = Dut_prng.Rng.split rng in
        with_round_buffer qs.(i) (fun samples ->
            fill_samples coins source qs.(i) samples;
            player ~index:i coins samples))
  in
  { votes; accept = Rule.apply rule votes }

(* The message vector of a uniform-q round, one message per player in
   index order. Messages never alias the samples buffer, so the caller
   may read them after it is released. *)
let gather ~rng ~source ~k ~q messenger =
  with_round_buffer q (fun samples ->
      with_scratch_coins (fun coins ->
          Array.init k (fun i ->
              Dut_prng.Rng.split_into rng coins;
              fill_samples coins source q samples;
              messenger ~index:i coins samples)))

let round ~rng ~source ~k ~q ~player ~rule =
  if k <= 0 then invalid_arg "Network.round: k must be positive";
  if q < 0 then invalid_arg "Network.round: q must be non-negative";
  let votes = gather ~rng ~source ~k ~q player in
  { votes; accept = Rule.apply rule votes }

(* The counting referee: for count-decidable rules the verdict is
   [ones >= accept_min], so the round folds votes into one integer —
   no vote vector, no per-player coins allocation, no per-player
   branch beyond the player's own decision. Draw-for-draw identical to
   [round] (same split order, same fills). *)
let round_accept ~rng ~source ~k ~q ~player ~rule =
  if k <= 0 then invalid_arg "Network.round_accept: k must be positive";
  if q < 0 then invalid_arg "Network.round_accept: q must be non-negative";
  if not (Rule.count_decidable rule) then
    (round ~rng ~source ~k ~q ~player ~rule).accept
  else
    let min_ones = Rule.accept_min rule ~k in
    with_round_buffer q (fun samples ->
        with_scratch_coins (fun coins ->
            let ones = ref 0 in
            for i = 0 to k - 1 do
              Dut_prng.Rng.split_into rng coins;
              fill_samples coins source q samples;
              ones := !ones + Bool.to_int (player ~index:i coins samples)
            done;
            !ones >= min_ones))

let round_messages ~rng ~source ~k ~q ~messenger ~referee =
  if k <= 0 then invalid_arg "Network.round_messages: k must be positive";
  if q < 0 then invalid_arg "Network.round_messages: q must be non-negative";
  referee (gather ~rng ~source ~k ~q messenger)

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

let of_sampler s rng = Dut_dist.Sampler.draw s rng

let of_paninski d rng = Dut_dist.Paninski.draw d rng

let uniform_source ~n =
  if n <= 0 then invalid_arg "Network.uniform_source: n must be positive";
  (* [Rng.int] with the rejection mask hoisted out of the closure:
     bit-identical draws, no per-sample mask rebuild. *)
  let mask = Dut_prng.Rng.mask_for n in
  fun rng -> Dut_prng.Rng.masked_int rng ~mask ~bound:n
