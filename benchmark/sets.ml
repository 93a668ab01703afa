(* Sets of runs and their comparison.

   A set runs every workload [repeats] times, each run in a fresh child
   process with tracing off, then (with tracing) once more traced. The
   set file keeps every run's metrics, their median, min and max, the
   traced run's per-layer metrics and self-time table. A set file holds
   a list of sets; [--out] appends one. *)

module J = Dut_obs.Json

let schema = "dut-benchmark-sets/1"

(* -- Running children ------------------------------------------------------ *)

type child = {
  result : J.t;
  digests : (string * string) list;
  layers : (string * (string * float)) list;  (** the run's layer lines *)
}

let run_child exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let lines = In_channel.input_lines ic in
  let status = Unix.close_process_in ic in
  let lines = List.filter (fun l -> String.trim l <> "") lines in
  List.iter print_endline lines;
  match (status, List.rev lines) with
  | Unix.WEXITED 0, last :: _ ->
      let fields = List.map (String.split_on_char ' ') lines in
      {
        result = J.parse last;
        digests =
          List.filter_map
            (function [ "digest"; name; d ] -> Some (name, d) | _ -> None)
            fields;
        layers =
          List.filter_map
            (function
              | [ "layer"; name; v; unit_ ] -> Some (name, (unit_, float_of_string v))
              | _ -> None)
            fields;
      }
  | _ -> failwith ("benchmark run failed: " ^ String.concat " " args)

let metric_values (r : J.t) =
  match J.field r "metrics" with
  | J.Obj kvs ->
      List.map (fun (name, m) -> (name, (J.want_str m "unit", J.want_num m "value"))) kvs
  | _ -> raise (J.Malformed "metrics")

(* -- Statistics ------------------------------------------------------------- *)

(* Quartiles as Python's statistics.quantiles(values, n=4) gives them. *)
let quartiles values =
  let data = Array.of_list values in
  Array.sort compare data;
  let ld = Array.length data in
  if ld < 2 then (Meas.median data, Meas.median data)
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((data.(j - 1) *. float_of_int (4 - delta)) +. (data.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

let median values = Meas.median (Array.of_list values)

let spread values =
  let q1, q3 = quartiles values in
  Meas.ratio (q3 -. q1) (Float.abs (median values))

(* -- Writing a set ----------------------------------------------------------- *)

let rec pretty buf indent j =
  let pad n = String.make n ' ' in
  let scalar = function J.Obj _ | J.Arr _ -> false | _ -> true in
  match j with
  | J.Obj [] -> Buffer.add_string buf "{}"
  | J.Obj kvs ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          Buffer.add_string buf (pad (indent + 2));
          J.to_buffer buf (J.Str k);
          Buffer.add_string buf ": ";
          pretty buf (indent + 2) v;
          if i < List.length kvs - 1 then Buffer.add_char buf ',';
          Buffer.add_char buf '\n')
        kvs;
      Buffer.add_string buf (pad indent ^ "}")
  | J.Arr xs when not (List.for_all scalar xs) ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i v ->
          Buffer.add_string buf (pad (indent + 2));
          pretty buf (indent + 2) v;
          if i < List.length xs - 1 then Buffer.add_char buf ',';
          Buffer.add_char buf '\n')
        xs;
      Buffer.add_string buf (pad indent ^ "]")
  | j -> J.to_buffer buf j

let self_time_json file =
  match Meas.read_file file with
  | exception Sys_error _ -> J.Arr []
  | s -> J.parse s

(* Per name: its unit and every run's value, in run order. *)
let summarise named =
  List.map
    (fun (name, (unit_, _)) ->
      let values = List.map (fun run -> snd (List.assoc name run)) named in
      ( name,
        J.Obj
          [
            ("unit", J.Str unit_);
            ("median", J.Num (median values));
            ("min", J.Num (List.fold_left Float.min Float.infinity values));
            ("max", J.Num (List.fold_left Float.max Float.neg_infinity values));
            ("values", J.Arr (List.map (fun v -> J.Num v) values));
          ] ))
    (List.hd named)

let workload_set ~workload ~runs ~traced ~trace_dir =
  let identical =
    List.for_all (fun c -> c.digests = (List.hd runs).digests) runs
  in
  let e2e = summarise (List.map (fun c -> metric_values c.result) runs) in
  let layers = summarise (List.map (fun c -> c.layers) runs) in
  let traced =
    match traced with
    | Some c ->
      [
        ( "per_layer",
          J.Obj
            (List.map
               (fun (name, (unit_, v)) ->
                 (name, J.Obj [ ("unit", J.Str unit_); ("value", J.Num v) ]))
               (metric_values c.result)) );
        ( "self_time",
          self_time_json
            (Filename.concat (Filename.concat trace_dir workload)
               (workload ^ ".profile.json")) );
      ]
    | None -> []
  in
  J.Obj
    ([
       ("name", J.Str workload);
       ( "runs",
         J.Arr
           (List.map
              (fun c ->
                J.Obj
                  [
                    ("correct", J.field c.result "correct");
                    ("attempted", J.field c.result "attempted");
                    ("failed", J.field c.result "failed");
                    ( "digests",
                      J.Obj (List.map (fun (k, d) -> (k, J.Str d)) c.digests) );
                  ])
              runs) );
       ("outputs_identical", J.Bool identical);
       ("end_to_end", J.Obj e2e);
       ("layer_times", J.Obj layers);
     ]
    @ traced)

let load path =
  match Meas.read_file path with
  | exception Sys_error _ -> []
  | s -> (
      match J.field (J.parse s) "sets" with J.Arr sets -> sets | _ -> [])

(* The untraced runs go round the workloads [repeats] times, so each
   workload's runs spread over the whole set and a host that slows for
   a few minutes moves every workload's median a little rather than one
   workload's a lot. The traced runs follow. *)
let write_set exe ~out ~common ~workloads ~seed ~seconds ~repeats ~trace
    ~trace_dir ~jobs =
  let run workload t =
    run_child exe
      ([
         "--workload"; workload; "--seed"; string_of_int seed; "--seconds";
         Printf.sprintf "%g" seconds; "--trace"; string_of_int t;
       ]
      @ common)
  in
  let rounds = List.init repeats (fun _ -> List.map (fun w -> (w, run w 0)) workloads) in
  let traced = List.map (fun w -> (w, if trace then Some (run w 1) else None)) workloads in
  let set =
    J.Obj
      [
        ("created_unix", J.Num (Unix.time ()));
        ("nproc", J.int jobs);
        ("repeats", J.int repeats);
        ("seed", J.int seed);
        ("seconds", J.Num seconds);
        ( "workloads",
          J.Arr
            (List.map
               (fun workload ->
                 workload_set ~workload
                   ~runs:(List.map (List.assoc workload) rounds)
                   ~traced:(List.assoc workload traced) ~trace_dir)
               workloads) );
      ]
  in
  let buf = Buffer.create 65536 in
  pretty buf 0 (J.Obj [ ("schema", J.Str schema); ("sets", J.Arr (load out @ [ set ])) ]);
  Buffer.add_char buf '\n';
  Meas.write_file out (Buffer.contents buf);
  Printf.printf "\nset of %d run(s) per workload appended to %s\n" repeats out;
  List.iter
    (fun w ->
      Printf.printf "%s\n" (J.want_str w "name");
      match J.field w "end_to_end" with
      | J.Obj kvs ->
          List.iter
            (fun (name, m) ->
              Printf.printf "  %-16s %14.6g %-4s  [%g, %g]\n" name
                (J.want_num m "median") (J.want_str m "unit") (J.want_num m "min")
                (J.want_num m "max"))
            kvs
      | _ -> ())
    (match J.field set "workloads" with J.Arr ws -> ws | _ -> [])

(* -- Comparing two sets ------------------------------------------------------ *)

(* "FILE@N" is set N of a file (from 0); "FILE" pools all its sets, runs
   in file order. Appending one-run sets of two commits alternately to
   two files gives the alternating pairs a claimed gain needs. *)
let select spec =
  let path, index =
    match String.rindex_opt spec '@' with
    | Some i -> (
        match
          int_of_string_opt (String.sub spec (i + 1) (String.length spec - i - 1))
        with
        | Some n -> (String.sub spec 0 i, Some n)
        | None -> (spec, None))
    | None -> (spec, None)
  in
  let sets = load path in
  match (index, sets) with
  | _, [] -> failwith (path ^ ": no sets")
  | None, _ -> sets
  | Some n, _ when n >= 0 && n < List.length sets -> [ List.nth sets n ]
  | Some n, _ -> failwith (Printf.sprintf "%s: no set %d" path n)

(* Every run's value of [metric] on [workload], over [sets]. *)
let values sets workload metric =
  let of_set set =
    match J.field set "workloads" with
    | J.Arr ws -> (
        match List.find_opt (fun w -> J.want_str w "name" = workload) ws with
        | None -> []
        | Some w -> (
            match J.field_opt (J.field w "end_to_end") metric with
            | Some m -> (
                match J.field m "values" with
                | J.Arr vs -> List.map (function J.Num f -> f | _ -> nan) vs
                | _ -> [])
            | None -> []))
    | _ -> []
  in
  match List.concat_map of_set sets with [] -> None | vs -> Some vs

(* better / unchanged / worse / unresolved against the metric's bound:
   a spread wider than the bound leaves the metric unresolved unless
   every run of B beats every run of A. Plus whether a gain could be
   claimed by the pairs rule: at least 10 pairs, at least 9 in 10 won,
   and medians apart by more than the parent's interquartile range. *)
let verdict ~lower ~bound a b =
  let ma = median a and mb = median b in
  let worse = (if lower then mb -. ma else ma -. mb) /. Float.abs ma in
  let beats x y = if lower then x < y else x > y in
  let all_better = List.for_all (fun vb -> List.for_all (fun va -> beats vb va) a) b in
  let verdict =
    if Float.max (spread a) (spread b) > bound then
      if all_better then "better" else "unresolved"
    else if worse > bound then "worse"
    else if worse < -.bound then "better"
    else "unchanged"
  in
  let pairs = min (List.length a) (List.length b) in
  let claim =
    if pairs < 10 then "-"
    else
      let wins =
        List.length
          (List.filter Fun.id
             (List.init pairs (fun i -> beats (List.nth b i) (List.nth a i))))
      in
      let q1, q3 = quartiles a in
      if 10 * wins >= 9 * pairs && Float.abs (mb -. ma) > q3 -. q1 then "claim"
      else "no-claim"
  in
  (ma, mb, worse, verdict, claim)

let compare ~bench_json a_spec b_spec =
  let bench = J.parse (Meas.read_file bench_json) in
  let metrics =
    match J.field bench "end_to_end" with
    | J.Arr ms ->
        List.map
          (fun m -> (J.want_str m "name", J.want_str m "better" = "lower", J.want_num m "bound"))
          ms
    | _ -> []
  in
  let workloads =
    match J.field bench "workloads" with
    | J.Arr ws -> List.map (fun w -> J.want_str w "name") ws
    | _ -> []
  in
  let a = select a_spec and b = select b_spec in
  Printf.printf "%-14s %-15s %12s %12s %8s %7s %6s  %-10s %s\n" "workload" "metric" "A"
    "B" "change" "spread" "bound" "verdict" "claim";
  let regressions = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun (name, lower, bound) ->
          match (values a w name, values b w name) with
          | Some va, Some vb ->
              let ma, mb, _, v, claim = verdict ~lower ~bound va vb in
              if v = "worse" || v = "unresolved" then incr regressions;
              Printf.printf "%-14s %-15s %12.6g %12.6g %+7.1f%% %6.1f%% %5.1f%%  %-10s %s\n" w
                name ma mb
                (100. *. (mb -. ma) /. Float.abs ma)
                (100. *. Float.max (spread va) (spread vb))
                (100. *. bound) v claim
          | _ -> Printf.printf "%-14s %-15s missing from a set\n" w name)
        metrics)
    workloads;
  if !regressions > 0 then 1 else 0
