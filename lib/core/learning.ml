type t = { n : int; k : int; q : int }

let make ~n ~k ~q =
  if n <= 0 || q <= 0 then invalid_arg "Learning.make: bad sizes";
  if k < n then invalid_arg "Learning.make: need at least one watcher per element";
  { n; k; q }

let estimate t rng source =
  let hits = Array.make t.n 0 in
  let watchers = Array.make t.n 0 in
  let messenger ~index _coins samples =
    let target = index mod t.n in
    let seen = Array.exists (fun s -> s = target) samples in
    (target, seen)
  in
  Dut_protocol.Network.round_fold ~rng ~source ~k:t.k ~q:t.q ~messenger
    ~init:()
    ~f:(fun () (target, seen) ->
      watchers.(target) <- watchers.(target) + 1;
      if seen then hits.(target) <- hits.(target) + 1);
  (* Invert the hit rate: f = 1 - (1-p)^q  =>  p = 1 - (1-f)^(1/q). *)
  let raw =
    Array.init t.n (fun e ->
        let f = float_of_int hits.(e) /. float_of_int watchers.(e) in
        let f = Float.min f (1. -. 1e-9) in
        1. -. ((1. -. f) ** (1. /. float_of_int t.q)))
  in
  let total = Array.fold_left ( +. ) 0. raw in
  if total <= 0. then Dut_dist.Pmf.uniform t.n
  else Dut_dist.Pmf.create (Array.map (fun p -> p /. total) raw)

let l1_error t rng ~truth =
  let sampler = Dut_dist.Sampler.of_pmf truth in
  let est = estimate t rng (Dut_protocol.Network.of_sampler sampler) in
  Dut_dist.Distance.l1 est truth

let mean_l1_error ~trials ~rng ~n ~k ~q ~truth =
  let t = make ~n ~k ~q in
  Dut_stats.Montecarlo.estimate_mean ~trials rng (fun r -> l1_error t r ~truth)

let critical_k ~trials ~rng ~ell ~eps ~q ~delta ?(hi = 1 lsl 22) () =
  let n = 1 lsl (ell + 1) in
  (* Search over multiples of n: k = n * w for w watchers per element. *)
  let ok w =
    let k = n * w in
    let probe_rng = Dut_prng.Rng.split rng in
    let t = make ~n ~k ~q in
    let mean_err =
      Dut_stats.Montecarlo.estimate_mean ~trials probe_rng (fun r ->
          let truth_pmf =
            Dut_dist.Paninski.pmf (Dut_dist.Paninski.random ~ell ~eps r)
          in
          l1_error t r ~truth:truth_pmf)
    in
    mean_err.mean < delta
  in
  match Dut_stats.Critical.search ~lo:1 ~hi:(max 1 (hi / n)) ok with
  | None -> None
  | Some w -> Some (n * w)
