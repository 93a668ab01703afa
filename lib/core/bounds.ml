let fi = float_of_int

let log2 x = log x /. log 2.

let centralized ~n ~eps = sqrt (fi n) /. (eps *. eps)

let thm11_lower ~n ~k ~eps = sqrt (fi n /. fi k) /. (eps *. eps)

let thm11_applies ~n ~k ~eps = fi k <= fi n /. (eps *. eps)

let thm61_lower ~n ~k ~eps =
  Float.min (sqrt (fi n /. fi k)) (fi n /. fi k) /. (eps *. eps)

let thm12_and_lower ~n ~k ~eps =
  if k <= 1 then centralized ~n ~eps
  else
    let lg = log2 (fi k) in
    sqrt (fi n) /. (lg *. lg *. eps *. eps)

let thm12_applies ~k ~eps ~c = log2 (fi k) <= c /. eps

let thm13_threshold_lower ~n ~k ~eps ~t =
  let lg = log (fi k /. eps) in
  sqrt (fi n) /. (fi t *. lg *. lg *. eps *. eps)

let thm14_learning_nodes ~n ~q = fi n *. fi n /. (fi q *. fi q)

let thm64_rbit_lower ~n ~k ~eps ~r =
  let kk = (2. ** fi r) *. fi k in
  Float.min (sqrt (fi n /. kk)) (fi n /. kk) /. (eps *. eps)

let fmo_and_upper ~n ~k ~eps =
  sqrt (fi n) /. ((fi k ** (eps *. eps)) *. eps *. eps)

let fmo_threshold_upper ~n ~k ~eps = sqrt (fi n /. fi k) /. (eps *. eps)

let act_single_sample_nodes ~n ~eps ~bits =
  fi n /. ((2. ** (fi bits /. 2.)) *. eps *. eps)

let act_learning_nodes ~n ~eps ~bits =
  fi n *. fi n /. ((2. ** fi bits) *. eps *. eps)

let l2_norm rates = sqrt (Array.fold_left (fun a r -> a +. (r *. r)) 0. rates)

let async_time_lower ~n ~eps ~rates =
  sqrt (fi n) /. (eps *. eps *. l2_norm rates)

let lemma51_rhs ~q ~n ~eps ~var_g =
  4. *. fi q *. eps *. eps /. sqrt (fi n) *. sqrt var_g

let lemma51_applies ~q ~n ~eps = fi q <= sqrt (fi n) /. (4. *. eps *. eps)

let lemma42_rhs ~q ~n ~eps ~var_g =
  ((20. *. fi q *. fi q *. (eps ** 4.) /. fi n) +. (fi q *. eps *. eps /. fi n))
  *. var_g

let lemma42_applies ~q ~n ~eps = fi q <= sqrt (fi n) /. (20. *. eps *. eps)

let lemma42_rhs_slack ~q ~n ~eps ~var_g =
  ((20. *. fi q *. fi q *. (eps ** 4.) /. fi n)
  +. (4. *. fi q *. eps *. eps /. fi n))
  *. var_g

let lemma43_rhs ~q ~n ~eps ~var_g ~m =
  let mf = fi m in
  let ratio = fi q /. sqrt (fi n) in
  (ratio +. (ratio ** (1. /. ((2. *. mf) +. 2.))))
  *. 40. *. mf *. mf *. eps *. eps
  *. (var_g ** (((2. *. mf) +. 1.) /. ((2. *. mf) +. 2.)))

let lemma43_applies ~q ~n ~eps ~m =
  let mf = fi m in
  let base = 40. *. mf *. mf *. eps *. eps in
  fi q <= sqrt (fi n) /. base
  && fi q <= sqrt (fi n) /. (base ** (mf +. 1.))

let lemma44_rhs ~q ~n ~eps ~var_g ~m ~c =
  let mf = fi m in
  let ratio = fi q /. sqrt (fi n) in
  (2. *. eps *. eps *. fi q /. fi n *. var_g)
  +. c
     *. (ratio +. (ratio ** (1. /. (mf +. 1.))))
     *. mf *. mf *. eps *. eps
     *. (var_g ** (2. -. (1. /. (mf +. 1.))))

let divergence_requirement ~k ~delta = log2 (1. /. delta) /. (10. *. fi k)

let asymmetric_divergence_requirement ~k ~delta1 ~delta0 =
  Dut_dist.Distance.kl_bernoulli delta1 (1. -. delta0) /. (10. *. fi k)

let divergence_budget ~q ~n ~eps =
  ((20. *. fi q *. fi q *. (eps ** 4.) /. fi n) +. (fi q *. eps *. eps /. fi n))
  /. log 2.
