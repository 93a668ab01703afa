(* Seeded workload inputs. They come from the stdlib PRNG, never from
   the program's own generator, so a change to the code under test can
   never change the inputs it is measured on. Every input family draws
   from its own stream of the seed, and the program sees only the
   generated query lines and samples. *)

type kind = Bound | Power | Critical of int  (** [hi] *)

type query = { line : string; kind : kind }

let state ~seed stream = Random.State.make [| seed; stream |]

let pick st a = a.(Random.State.int st (Array.length a))

let range st lo hi = lo + Random.State.int st (hi - lo + 1)

type tester = And | Threshold | Clique | Matching | Bipartite | Regular4

(* Draws are sequenced by [let]s: OCaml leaves the evaluation order of
   function arguments unspecified. *)
let tester st = function
  | And -> {|"tester":"and"|}
  | Threshold ->
      let t = range st 2 4 in
      Printf.sprintf {|"tester":"threshold","t":%d|} t
  | Clique -> {|"tester":"graph","family":"clique"|}
  | Matching -> {|"tester":"graph","family":"matching"|}
  | Bipartite -> {|"tester":"graph","family":"bipartite"|}
  | Regular4 -> {|"tester":"graph","family":"regular","degree":4|}

let power_line st kind ~ells ~epss ~ks ~q:(qlo, qhi) ~trials ~seed =
  let tester = tester st kind in
  let ell = pick st ells in
  let eps = pick st epss in
  let k = pick st ks in
  let q = range st qlo qhi in
  let trials =
    match trials with
    | None -> ""
    | Some (lo, hi) -> Printf.sprintf {|,"trials":%d|} (range st lo hi)
  in
  Printf.sprintf
    {|{"kind":"power",%s,"ell":%d,"eps":%g,"k":%d,"q":%d%s,"seed":%d}|}
    tester ell eps k q trials seed

(* -- query-cold ----------------------------------------------------------- *)

(* A critical search always carries [hi]: without one the bisection is
   unbounded (matching at l=6, eps=0.3, k=32 ran for over a minute). *)
let critical_hi = 512

let cold_power_testers =
  [| And; Threshold; Clique; Matching; Bipartite; Regular4 |]

let cold_critical_testers = [| And; Threshold; Clique |]

(* Pass [pass] of the cold workload: [count] queries that no earlier
   pass of the run asked, because each carries a run-unique query seed.
   Every tenth is a critical-q search and the testers take turns, so
   every pass has the same mix; the parameters are drawn. *)
let cold_queries ~smoke ~seed ~pass ~count =
  let st = state ~seed (100 + pass) in
  let base = Random.State.int (state ~seed 99) 1_000_000_000 in
  Array.init count (fun i ->
      let qseed = base + (pass * count) + i in
      if i mod 10 = 9 then
        let tester = tester st cold_critical_testers.(i / 10 mod 3) in
        let ell = if smoke then 3 else pick st [| 4; 5 |] in
        let eps = pick st [| 0.4; 0.5 |] in
        let k = if smoke then 4 else pick st [| 8; 16 |] in
        let line =
          Printf.sprintf
            {|{"kind":"critical",%s,"ell":%d,"eps":%g,"k":%d%s,"seed":%d,"hi":%d}|}
            tester ell eps k
            (if smoke then {|,"trials":20|} else "")
            qseed critical_hi
        in
        { line; kind = Critical critical_hi }
      else
        let kind = cold_power_testers.(i mod 6) in
        let line =
          if smoke then
            power_line st kind ~ells:[| 3 |] ~epss:[| 0.5 |] ~ks:[| 4 |]
              ~q:(6, 12) ~trials:(Some (20, 20)) ~seed:qseed
          else
            power_line st kind ~ells:[| 4; 5; 6 |] ~epss:[| 0.3; 0.4; 0.5 |]
              ~ks:[| 8; 16; 32 |] ~q:(8, 96) ~trials:None ~seed:qseed
        in
        { line; kind = Power })

(* -- query-warm ----------------------------------------------------------- *)

let bound_names =
  [|
    "act_learning_nodes"; "act_single_sample_nodes"; "centralized";
    "divergence_budget"; "divergence_requirement"; "fmo_and_upper";
    "fmo_threshold_upper"; "thm11_lower"; "thm12_and_lower";
    "thm13_threshold_lower"; "thm14_learning_nodes"; "thm61_lower";
    "thm64_rbit_lower";
  |]

(* Cheap keys: closed-form bounds and small power verdicts. Every bound
   query carries every parameter any bound reads. *)
let warm_key st =
  if Random.State.bool st then
    let name = pick st bound_names in
    let n = 1 lsl range st 6 13 in
    let k = range st 2 64 in
    let eps = pick st [| 0.1; 0.15; 0.2; 0.25; 0.3; 0.4; 0.5 |] in
    let q = range st 1 64 in
    let t = range st 1 8 in
    let r = range st 1 4 in
    let bits = range st 1 4 in
    let delta = pick st [| 0.01; 0.05; 0.1; 0.2 |] in
    {
      line =
        Printf.sprintf
          {|{"kind":"bound","name":"%s","params":{"n":%d,"k":%d,"eps":%g,"q":%d,"t":%d,"r":%d,"bits":%d,"delta":%g}}|}
          name n k eps q t r bits delta;
      kind = Bound;
    }
  else
    let kind = pick st [| And; Threshold; Clique |] in
    let seed = Random.State.int st 1_000_000 in
    {
      line =
        power_line st kind ~ells:[| 3; 4 |] ~epss:[| 0.3; 0.4; 0.5 |]
          ~ks:[| 4; 8 |] ~q:(4, 24) ~trials:(Some (20, 40)) ~seed;
      kind = Power;
    }

(* [count] distinct keys. *)
let warm_keys ~seed ~count =
  let st = state ~seed 200 in
  let seen = Hashtbl.create count in
  let rec fresh () =
    let k = warm_key st in
    if Hashtbl.mem seen k.line then fresh ()
    else begin
      Hashtbl.add seen k.line ();
      k
    end
  in
  Array.init count (fun _ -> fresh ())

(* Zipf(1.0) popularity over [n] keys: rank r (1-based) has weight 1/r,
   and a seeded shuffle decides which key holds which rank. *)
type zipf = { cdf : float array; perm : int array }

let zipf ~seed n =
  let st = state ~seed 300 in
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for r = 0 to n - 1 do
    acc := !acc +. (1. /. float_of_int (r + 1));
    cdf.(r) <- !acc
  done;
  Array.iteri (fun r c -> cdf.(r) <- c /. !acc) cdf;
  { cdf; perm }

(* Key indices of pass [pass]'s requests. *)
let zipf_requests z ~seed ~pass ~count =
  let st = state ~seed (400 + pass) in
  Array.init count (fun _ ->
      let u = Random.State.float st 1. in
      let lo = ref 0 and hi = ref (Array.length z.cdf - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if z.cdf.(mid) < u then lo := mid + 1 else hi := mid
      done;
      z.perm.(!lo))

(* -- stream-ingest -------------------------------------------------------- *)

(* Every pass replays the same uniform stream, so its verdicts must
   repeat byte for byte. *)
let stream_state ~seed = state ~seed 500

let fill_uniform st ~n buf =
  for i = 0 to Array.length buf - 1 do
    buf.(i) <- Random.State.int st n
  done
