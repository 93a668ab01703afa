type graph_family = Clique | Matching | Bipartite | Regular of int

type tester =
  | And
  | Threshold of int
  | Graph of { family : graph_family; t : int }

type t =
  | Bound of { name : string; params : (string * float) list }
  | Power of {
      tester : tester;
      ell : int;
      eps : float;
      k : int;
      q : int;
      trials : int;
      level : float;
      seed : int;
      adaptive : bool;
    }
  | Critical of {
      tester : tester;
      ell : int;
      eps : float;
      k : int;
      trials : int;
      level : float;
      seed : int;
      adaptive : bool;
      hi : int option;
      guess : int option;
    }

module J = Dut_obs.Json

(* -- Bound dispatch ----------------------------------------------------- *)

(* Each bound pulls its named parameters out of the (sorted) params
   list; a missing one fails with the field name, which the server
   turns into an error response for just that request. *)
let need params name =
  match List.assoc_opt name params with
  | Some v -> v
  | None -> failwith (Printf.sprintf "bound: missing parameter %S" name)

let need_int params name =
  let f = need params name in
  let i = int_of_float f in
  if Float.of_int i <> f || i <= 0 then
    failwith (Printf.sprintf "bound: parameter %S must be a positive integer" name);
  i

let bounds_table :
    (string * ((string * float) list -> float)) list =
  let open Dut_core.Bounds in
  [
    ("act_learning_nodes", fun p -> act_learning_nodes ~n:(need_int p "n") ~eps:(need p "eps") ~bits:(need_int p "bits"));
    ("act_single_sample_nodes", fun p -> act_single_sample_nodes ~n:(need_int p "n") ~eps:(need p "eps") ~bits:(need_int p "bits"));
    ("centralized", fun p -> centralized ~n:(need_int p "n") ~eps:(need p "eps"));
    ("divergence_budget", fun p -> divergence_budget ~q:(need_int p "q") ~n:(need_int p "n") ~eps:(need p "eps"));
    ("divergence_requirement", fun p -> divergence_requirement ~k:(need_int p "k") ~delta:(need p "delta"));
    ("fmo_and_upper", fun p -> fmo_and_upper ~n:(need_int p "n") ~k:(need_int p "k") ~eps:(need p "eps"));
    ("fmo_threshold_upper", fun p -> fmo_threshold_upper ~n:(need_int p "n") ~k:(need_int p "k") ~eps:(need p "eps"));
    ("thm11_lower", fun p -> thm11_lower ~n:(need_int p "n") ~k:(need_int p "k") ~eps:(need p "eps"));
    ("thm12_and_lower", fun p -> thm12_and_lower ~n:(need_int p "n") ~k:(need_int p "k") ~eps:(need p "eps"));
    ("thm13_threshold_lower", fun p -> thm13_threshold_lower ~n:(need_int p "n") ~k:(need_int p "k") ~eps:(need p "eps") ~t:(need_int p "t"));
    ("thm14_learning_nodes", fun p -> thm14_learning_nodes ~n:(need_int p "n") ~q:(need_int p "q"));
    ("thm61_lower", fun p -> thm61_lower ~n:(need_int p "n") ~k:(need_int p "k") ~eps:(need p "eps"));
    ("thm64_rbit_lower", fun p -> thm64_rbit_lower ~n:(need_int p "n") ~k:(need_int p "k") ~eps:(need p "eps") ~r:(need_int p "r"));
  ]

(* -- Canonical JSON ----------------------------------------------------- *)

let family_fields = function
  | Clique -> [ ("family", J.Str "clique") ]
  | Matching -> [ ("family", J.Str "matching") ]
  | Bipartite -> [ ("family", J.Str "bipartite") ]
  | Regular degree -> [ ("family", J.Str "regular"); ("degree", J.int degree) ]

let tester_fields = function
  | And -> [ ("tester", J.Str "and") ]
  | Threshold t -> [ ("tester", J.Str "threshold"); ("t", J.int t) ]
  | Graph { family; t } ->
      (("tester", J.Str "graph") :: family_fields family) @ [ ("t", J.int t) ]

let to_json = function
  | Bound { name; params } ->
      J.Obj
        [
          ("kind", J.Str "bound");
          ("name", J.Str name);
          ("params", J.Obj (List.map (fun (k, v) -> (k, J.Num v)) params));
        ]
  | Power { tester; ell; eps; k; q; trials; level; seed; adaptive } ->
      J.Obj
        ([ ("kind", J.Str "power") ]
        @ tester_fields tester
        @ [
            ("ell", J.int ell);
            ("eps", J.Num eps);
            ("k", J.int k);
            ("q", J.int q);
            ("trials", J.int trials);
            ("level", J.Num level);
            ("seed", J.int seed);
            ("adaptive", J.Bool adaptive);
          ])
  | Critical { tester; ell; eps; k; trials; level; seed; adaptive; hi; guess }
    ->
      J.Obj
        ([ ("kind", J.Str "critical") ]
        @ tester_fields tester
        @ [
            ("ell", J.int ell);
            ("eps", J.Num eps);
            ("k", J.int k);
            ("trials", J.int trials);
            ("level", J.Num level);
            ("seed", J.int seed);
            ("adaptive", J.Bool adaptive);
          ]
        @ (match hi with Some h -> [ ("hi", J.int h) ] | None -> [])
        @ match guess with Some g -> [ ("guess", J.int g) ] | None -> [])

let canonical q = J.to_string (to_json q)

(* -- Parsing ------------------------------------------------------------ *)

(* Defaults match the fast profile's Monte-Carlo settings, so a bare
   {"kind":"power",...} query answers the same question the batch CLI
   would under `--profile fast`. *)
let default_trials = 120

let default_level = 0.72

let default_seed = 2019

let get_int j name =
  let f = J.want_num j name in
  let i = int_of_float f in
  if Float.of_int i <> f then
    raise (J.Malformed (Printf.sprintf "field %S: expected an integer" name));
  i

let get_int_opt j name ~default =
  match J.field_opt j name with Some _ -> get_int j name | None -> default

let get_num_opt j name ~default =
  match J.field_opt j name with Some _ -> J.want_num j name | None -> default

let get_bool_opt j name ~default =
  match J.field_opt j name with Some _ -> J.want_bool j name | None -> default

let positive name i =
  if i <= 0 then
    raise (J.Malformed (Printf.sprintf "field %S: must be positive" name));
  i

let parse_family j =
  match J.want_str j "family" with
  | "clique" -> Clique
  | "matching" -> Matching
  | "bipartite" -> Bipartite
  | "regular" ->
      let degree = positive "degree" (get_int j "degree") in
      (* Odd degrees constrain q's parity (a d-regular graph needs q*d
         even), which a critical-q bisection cannot honour; the wire
         language keeps to even degrees. *)
      if degree land 1 = 1 then
        raise (J.Malformed "field \"degree\": must be even");
      Regular degree
  | s ->
      raise
        (J.Malformed
           (Printf.sprintf
              "field \"family\": unknown family %S (clique|matching|bipartite|regular)"
              s))

let parse_tester j =
  match J.want_str j "tester" with
  | "and" -> And
  | "threshold" -> Threshold (positive "t" (get_int j "t"))
  | "graph" ->
      let family = parse_family j in
      Graph { family; t = positive "t" (get_int_opt j "t" ~default:1) }
  | s ->
      raise
        (J.Malformed
           (Printf.sprintf
              "field \"tester\": unknown tester %S (and|threshold|graph)" s))

let parse_mc j =
  let ell = positive "ell" (get_int j "ell") in
  let eps = J.want_num j "eps" in
  if not (eps > 0. && eps < 1.) then
    raise (J.Malformed "field \"eps\": must be in (0, 1)");
  let k = positive "k" (get_int j "k") in
  let trials = positive "trials" (get_int_opt j "trials" ~default:default_trials) in
  let level = get_num_opt j "level" ~default:default_level in
  if not (level > 0. && level < 1.) then
    raise (J.Malformed "field \"level\": must be in (0, 1)");
  let seed = get_int_opt j "seed" ~default:default_seed in
  let adaptive = get_bool_opt j "adaptive" ~default:true in
  (ell, eps, k, trials, level, seed, adaptive)

let of_json j =
  match
    match J.want_str j "kind" with
    | "bound" ->
        let name = J.want_str j "name" in
        let params =
          match J.field j "params" with
          | J.Obj kvs ->
              List.sort
                (fun (a, _) (b, _) -> String.compare a b)
                (List.map
                   (fun (k, v) ->
                     match v with
                     | J.Num f -> (k, f)
                     | _ ->
                         raise
                           (J.Malformed
                              (Printf.sprintf "field %S: expected number" k)))
                   kvs)
          | _ -> raise (J.Malformed "field \"params\": expected object")
        in
        Bound { name; params }
    | "power" ->
        let tester = parse_tester j in
        let ell, eps, k, trials, level, seed, adaptive = parse_mc j in
        let q = positive "q" (get_int j "q") in
        Power { tester; ell; eps; k; q; trials; level; seed; adaptive }
    | "critical" ->
        let tester = parse_tester j in
        let ell, eps, k, trials, level, seed, adaptive = parse_mc j in
        let hi =
          match J.field_opt j "hi" with
          | Some _ -> Some (positive "hi" (get_int j "hi"))
          | None -> None
        in
        let guess =
          match J.field_opt j "guess" with
          | Some _ -> Some (positive "guess" (get_int j "guess"))
          | None -> None
        in
        Critical { tester; ell; eps; k; trials; level; seed; adaptive; hi; guess }
    | s -> raise (J.Malformed (Printf.sprintf "unknown kind %S (bound|power|critical)" s))
  with
  | q -> Ok q
  | exception J.Malformed msg -> Error msg

(* -- Evaluation --------------------------------------------------------- *)

(* The graph seed is not part of the wire language: every served
   Random_regular instance uses seed 1, so equal canonical queries keep
   naming the same graph. *)
let core_family = function
  | Clique -> Dut_core.Comparison_graph.Clique
  | Matching -> Dut_core.Comparison_graph.Matching
  | Bipartite -> Dut_core.Comparison_graph.Bipartite
  | Regular degree -> Dut_core.Comparison_graph.Random_regular { degree; seed = 1 }

(* [and] is the clique at reject threshold 1, [threshold] the clique at
   [t]. *)
let make_tester tester ~n ~eps ~k q =
  let family, t =
    match tester with
    | And -> (Dut_core.Comparison_graph.Clique, 1)
    | Threshold t -> (Dut_core.Comparison_graph.Clique, t)
    | Graph { family; t } -> (core_family family, t)
  in
  Dut_core.Comparison_graph.tester_fixed ~n ~eps ~k ~q ~t family

(* A Regular-family critical search must not probe q <= degree, where
   the graph does not exist; even degrees put no parity constraint on
   q, so degree + 1 is the least feasible q. *)
let tester_lo = function
  | Graph { family = Regular degree; _ } -> Some (degree + 1)
  | And | Threshold _ | Graph _ -> None

let eval = function
  | Bound { name; params } -> (
      match List.assoc_opt name bounds_table with
      | Some f -> J.Num (f params)
      | None -> failwith (Printf.sprintf "bound: unknown name %S" name))
  | Power { tester; ell; eps; k; q; trials; level; seed; adaptive } ->
      let n = 1 lsl (ell + 1) in
      let rng = Dut_prng.Rng.create seed in
      J.Bool
        (Dut_core.Evaluate.succeeds ~adaptive ~trials ~level ~rng ~ell ~eps
           (make_tester tester ~n ~eps ~k q))
  | Critical { tester; ell; eps; k; trials; level; seed; adaptive; hi; guess }
    -> (
      let n = 1 lsl (ell + 1) in
      let rng = Dut_prng.Rng.create seed in
      match
        Dut_core.Evaluate.critical_q ~adaptive ~trials ~level ~rng ~ell ~eps
          ?lo:(tester_lo tester) ?hi ?guess
          (make_tester tester ~n ~eps ~k)
      with
      | Some q -> J.int q
      | None -> J.Null)

(* -- Requests and responses --------------------------------------------- *)

type request = { id : int; query : (t, string) result }

let request_of_line line =
  match J.parse line with
  | exception J.Malformed msg -> { id = -1; query = Error msg }
  | j ->
      let id =
        match J.field_opt j "id" with
        | Some (J.Num f) when Float.is_integer f -> int_of_float f
        | _ -> -1
      in
      { id; query = of_json j }

let request_to_line ~id q =
  match to_json q with
  | J.Obj kvs -> J.to_string (J.Obj (("id", J.int id) :: kvs))
  | _ -> assert false

let ok_payload value =
  J.to_string (J.Obj [ ("status", J.Str "ok"); ("value", value) ])

let error_payload msg =
  J.to_string (J.Obj [ ("status", J.Str "error"); ("error", J.Str msg) ])

(* The payload bytes are spliced in verbatim (they always start with
   '{'), so a memoized payload and a freshly computed one produce
   byte-identical response lines. *)
let response_line ~id payload =
  Printf.sprintf "{\"id\":%d,%s" id
    (String.sub payload 1 (String.length payload - 1))
