(* Engine and stream benches, their schema check and the allocation gate.

   The benchmark of record (benchmark/, BENCHMARK.json) measures what a
   client sees end to end. This harness keeps the two figures it does
   not record: minor words per Monte-Carlo trial on the heaviest
   fast-profile kernels, which the allocation gate budgets, and the
   ingest rate along the streaming sketch-budget ladder.

     --engine [--quick]   results/bench_engine.json
     --stream [--quick]   results/bench_stream.json
     --check              validate the results files against their schemas
     --gate               compare the quick engine run with
                          results/alloc_budget.json

   A --quick run of either leg (or both, in one invocation) appends one
   row to results/bench_history.jsonl, built from the legs that run
   measured. *)

open Dut_obs.Json

let results_file name = Filename.concat "results" name

let ensure_results_dir () =
  if not (Sys.file_exists "results") then Sys.mkdir "results" 0o755

let open_results path =
  ensure_results_dir ();
  open_out path

(* Monotonic, so a wall-clock step can never record a negative time. *)
let seconds_since t0 = float_of_int (Dut_obs.Span.now_ns () - t0) /. 1e9

(* -- Engine leg (`--engine`) -------------------------------------------- *)

(* The three heaviest fast-profile experiment kernels (by measured
   elapsed time of a full `run-all`). *)
let engine_bench_ids = [ "A1-ablation"; "T13-local-model"; "T20-open-problem" ]

(* The engine/stat counters each row records, on the shared Dut_obs
   vocabulary — the same names the run manifest and `--metrics` print,
   so results/bench_engine.json and a trace describe one world. *)
let tracked_counters =
  [
    "mc.trials_used";
    "mc.adaptive_early_stops";
    "search.probes";
    "search.exact_hits";
    "scratch.borrows";
    "scratch.reuse_hits";
  ]

type meas = {
  seconds : float;
  trials : int;
  minor_words : float;
  counters : (string * int) list;  (* tracked_counters deltas, same order *)
}

(* Elapsed time, Monte-Carlo trials executed, and minor-heap words
   allocated on the submitting domain (jobs is clamped to the host's
   core count, so on a single-core runner this is all allocation).
   Counters are measured as before/after deltas of the process-wide
   Dut_obs totals — the runs are quiescent at both read points. *)
let instrumented run =
  let base =
    List.map (fun n -> (n, Dut_obs.Metrics.value n)) tracked_counters
  in
  let mw0 = Gc.minor_words () in
  let t0 = Dut_obs.Span.now_ns () in
  ignore (run ());
  let seconds = seconds_since t0 in
  let counters =
    List.map (fun (n, v0) -> (n, Dut_obs.Metrics.value n - v0)) base
  in
  {
    seconds;
    trials = List.assoc "mc.trials_used" counters;
    minor_words = Gc.minor_words () -. mw0;
    counters;
  }

(* Minor-heap words allocated per Monte-Carlo trial — the figure the
   allocation gate budgets. Zero trials (a row that only replays
   memoized results) reads as zero words per trial. *)
let words_per_trial ~trials ~minor_words =
  if trials <= 0. then 0. else minor_words /. trials

let meas_words_per_trial m =
  words_per_trial ~trials:(float_of_int m.trials) ~minor_words:m.minor_words

let engine_json_path = results_file "bench_engine.json"

let meas_json m =
  Printf.sprintf
    "\"seconds\": %.3f, \"trials\": %d, \"minor_words\": %.0f, \
     \"words_per_trial\": %.1f,\n\
    \      \"counters\": %s"
    m.seconds m.trials m.minor_words (meas_words_per_trial m)
    (to_string (Obj (List.map (fun (n, v) -> (n, int v)) m.counters)))

let write_engine_json ~quick ~jobs ~run_all rows =
  let oc = open_results engine_json_path in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"engine-hotpath\",\n\
    \  \"profile\": \"fast\",\n\
    \  \"seed\": 2019,\n\
    \  \"quick\": %b,\n\
    \  \"jobs\": %d,\n\
    \  \"cores_available\": %d,\n\
    \  \"run_all\": { %s },\n\
    \  \"experiments\": [\n"
    quick jobs
    (Domain.recommended_domain_count ())
    (meas_json run_all);
  List.iteri
    (fun i (id, m) ->
      Printf.fprintf oc "    { \"id\": %S, %s }%s\n" id (meas_json m)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc

(* A leg returns its jobs count and the history fields it measured. *)
let bench_engine ~quick =
  (* --quick fixes every probe at 60 trials: the budget in
     results/alloc_budget.json is calibrated for that workload. *)
  let trials = if quick then Some 60 else None in
  let cfg = Dut_experiments.Config.make ?trials Dut_experiments.Config.Fast in
  Dut_engine.Parallel.set_default_jobs cfg.jobs;
  Printf.printf "== engine: fast profile%s, jobs=%d, %d cores ==\n%!"
    (if quick then ", quick" else "")
    cfg.jobs
    (Domain.recommended_domain_count ());
  let report name m =
    Printf.printf "%-18s %7.2fs   %7d trials   %9.1f words/trial\n%!" name
      m.seconds m.trials (meas_words_per_trial m)
  in
  let rows =
    List.map
      (fun id ->
        match Dut_experiments.Registry.find id with
        | None -> failwith ("bench_engine: unknown experiment " ^ id)
        | Some exp ->
            let m = instrumented (fun () -> exp.Dut_experiments.Exp.run cfg) in
            report id m;
            (id, m))
      engine_bench_ids
  in
  let devnull = open_out Filename.null in
  let run_all =
    Fun.protect
      ~finally:(fun () -> close_out devnull)
      (fun () ->
        instrumented (fun () ->
            Dut_experiments.Runner.run_all_to_channel ~timings:false cfg
              devnull))
  in
  report "run-all" run_all;
  Dut_engine.Parallel.set_default_jobs (Dut_engine.Parallel.env_jobs ());
  write_engine_json ~quick ~jobs:cfg.jobs ~run_all rows;
  print_endline ("wrote " ^ engine_json_path);
  (* The worst row is the gate-relevant per-trial allocation figure. *)
  let worst =
    List.fold_left
      (fun acc (_, m) -> Float.max acc (meas_words_per_trial m))
      0. rows
  in
  ( cfg.jobs,
    [ ("run_all_wall_s", Num run_all.seconds); ("words_per_trial", Num worst) ] )

(* -- Stream leg (`--stream`) -------------------------------------------- *)

module Sketch = Dut_stream.Sketch
module Ingest = Dut_stream.Ingest

let stream_json_path = results_file "bench_stream.json"

(* The budget ladder the throughput is measured on: the exact
   histogram, two hashed histograms, and two AMS widths — enough to see
   how the per-sample cost moves with sketch size (AMS pays one hash
   per counter per sample, so its cost is linear in the budget). *)
let stream_bench_rows n =
  [
    (Sketch.Hist, Sketch.exact_budget ~n);
    (Sketch.Hist, 72);
    (Sketch.Hist, 24);
    (Sketch.Ams, 40);
    (Sketch.Ams, 16);
  ]

type stream_meas = {
  s_kind : Sketch.kind;
  s_budget : int;
  s_words : int;
  s_samples : int;
  s_seconds : float;
  s_chunks : int;
}

let samples_per_sec m = float_of_int m.s_samples /. m.s_seconds

let bench_stream ~quick =
  let n = 256 in
  let seed = 2019 in
  let chunk = 4096 in
  let jobs = Dut_engine.Pool.effective_jobs (Dut_engine.Parallel.env_jobs ()) in
  let total = if quick then 1 lsl 18 else 1 lsl 22 in
  let rng = Dut_prng.Rng.create seed in
  let block = Array.init (1 lsl 14) (fun _ -> Dut_prng.Rng.int rng n) in
  Printf.printf
    "== stream: ingest throughput per sketch budget (n=%d, chunk=%d, %d \
     samples%s, jobs=%d) ==\n\
     %!"
    n chunk total
    (if quick then ", quick" else "")
    jobs;
  let rows =
    List.map
      (fun (kind, budget) ->
        let cfg = Sketch.config ~kind ~n ~budget_words:budget ~seed in
        let cum = ref (Sketch.create cfg) in
        let ing =
          Ingest.create ~jobs ~chunk
            ~on_chunk:(fun sk -> cum := Sketch.merge !cum sk)
            cfg
        in
        let t0 = Dut_obs.Span.now_ns () in
        let fed = ref 0 in
        while !fed < total do
          Ingest.feed_array ing block;
          fed := !fed + Array.length block
        done;
        Ingest.flush ing;
        let m =
          {
            s_kind = kind;
            s_budget = budget;
            s_words = Sketch.words_used !cum;
            s_samples = Ingest.samples_fed ing;
            s_seconds = seconds_since t0;
            s_chunks = Ingest.chunks_emitted ing;
          }
        in
        Printf.printf
          "%-4s budget %4d   %9.2e samples/s   %.6f words/sample   (%d words \
           used, %.2fs)\n\
           %!"
          (Sketch.kind_to_string kind)
          budget (samples_per_sec m)
          (float_of_int m.s_words /. float_of_int m.s_samples)
          m.s_words m.s_seconds;
        m)
      (stream_bench_rows n)
  in
  let oc = open_results stream_json_path in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"stream-ingest\",\n\
    \  \"seed\": %d,\n\
    \  \"quick\": %b,\n\
    \  \"jobs\": %d,\n\
    \  \"n\": %d,\n\
    \  \"chunk\": %d,\n\
    \  \"rows\": [\n"
    seed quick jobs n chunk;
  List.iteri
    (fun i m ->
      Printf.fprintf oc
        "    { \"sketch\": %S, \"budget_words\": %d, \"words_used\": %d, \
         \"samples\": %d, \"chunks\": %d, \"seconds\": %.4f, \
         \"samples_per_sec\": %.1f, \"words_per_sample\": %.8f }%s\n"
        (Sketch.kind_to_string m.s_kind)
        m.s_budget m.s_words m.s_samples m.s_chunks m.s_seconds
        (samples_per_sec m)
        (float_of_int m.s_words /. float_of_int m.s_samples)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc;
  print_endline ("wrote " ^ stream_json_path);
  (* Best throughput across the sketch-budget ladder. *)
  let best = List.fold_left (fun acc m -> Float.max acc (samples_per_sec m)) 0. rows in
  (jobs, [ ("ingest_samples_per_s", Num best) ])

(* -- Bench history (results/bench_history.jsonl) ------------------------ *)

(* One row per `--quick` invocation: the longitudinal record
   `dut obs-report --regressions` reads. Only quick runs append — the
   full-budget legs time a different workload, so their figures would
   not be comparable rows. A field whose leg did not run in this
   invocation is null, never a value copied from an older results file,
   and the regression report skips it. *)
let history_json_path = results_file "bench_history.jsonl"
let history_schema = "dut-bench-history/1"
let history_fields = [ "run_all_wall_s"; "words_per_trial"; "ingest_samples_per_s" ]

let append_history ~jobs measured =
  let row =
    Obj
      ([
         ("schema", Str history_schema);
         ("git", Str (Dut_obs.Manifest.git_describe ()));
         ("unix_time", Num (Float.round (Unix.time ())));
         ("jobs", int jobs);
       ]
      @ List.map
          (fun f -> (f, Option.value ~default:Null (List.assoc_opt f measured)))
          history_fields)
  in
  ensure_results_dir ();
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 history_json_path in
  output_string oc (to_string row);
  output_char oc '\n';
  close_out oc;
  print_endline ("appended " ^ history_json_path)

(* -- Schema check (`--check`) ------------------------------------------- *)

(* Every results file is checked against one rule table. A rule names
   the JSON shape a value must have; [Such_that] adds cross-field
   invariants that the shape alone cannot state. *)
type rule =
  | Is of string  (** exactly this string *)
  | Text  (** any string *)
  | One_of of string list
  | Flag  (** a bool *)
  | At_least of float  (** a number no smaller than the bound *)
  | Null_or_at_least of float  (** absent, null, or [At_least] *)
  | Fields of (string * rule) list  (** an object holding each field *)
  | Rows of rule  (** a non-empty array of conforming elements *)
  | Such_that of rule * (string * (t -> bool)) list

let rec check path rule v =
  let fail msg =
    raise (Malformed (if path = "" then msg else path ^ ": " ^ msg))
  in
  match (rule, v) with
  | Is s, Str s' when s = s' -> ()
  | Is s, _ -> fail (Printf.sprintf "expected %S" s)
  | Text, Str _ | Flag, Bool _ -> ()
  | One_of ok, Str s when List.mem s ok -> ()
  | One_of ok, _ -> fail ("expected one of " ^ String.concat ", " ok)
  | (At_least lo | Null_or_at_least lo), Num x ->
      if x < lo then fail (Printf.sprintf "%g is below %g" x lo)
  | Null_or_at_least _, Null -> ()
  | Fields fields, Obj kvs ->
      List.iter
        (fun (name, r) ->
          let sub = if path = "" then name else path ^ "." ^ name in
          match (List.assoc_opt name kvs, r) with
          | Some v, _ -> check sub r v
          | None, Null_or_at_least _ -> ()
          | None, _ -> fail (Printf.sprintf "missing field %S" name))
        fields
  | Rows _, Arr [] -> fail "empty"
  | Rows r, Arr vs ->
      List.iteri (fun i v -> check (Printf.sprintf "%s[%d]" path i) r v) vs
  | Such_that (r, invariants), _ ->
      check path r v;
      List.iter (fun (what, holds) -> if not (holds v) then fail what) invariants
  | Text, _ -> fail "expected a string"
  | Flag, _ -> fail "expected a bool"
  | (At_least _ | Null_or_at_least _), _ -> fail "expected a number"
  | Fields _, _ -> fail "expected an object"
  | Rows _, _ -> fail "expected an array"

(* One engine measurement: a run-all, or an experiment row with [extra]
   naming it. *)
let meas_rule extra =
  Such_that
    ( Fields
        (extra
        @ [
            ("seconds", At_least 0.);
            ("trials", At_least 0.);
            ("minor_words", At_least 0.);
            ("words_per_trial", At_least 0.);
            ("counters", Fields (List.map (fun c -> (c, At_least 0.)) tracked_counters));
          ]),
      [
        ( "counters[mc.trials_used] must equal trials",
          fun m -> want_num (field m "counters") "mc.trials_used" = want_num m "trials" );
        ( "words_per_trial must equal minor_words/trials",
          fun m ->
            (* Up to the %.1f rounding it was written with. *)
            let expect =
              words_per_trial ~trials:(want_num m "trials")
                ~minor_words:(want_num m "minor_words")
            in
            Float.abs (want_num m "words_per_trial" -. expect)
            <= 0.06 +. (1e-9 *. expect) );
      ] )

let engine_rule =
  Fields
    [
      ("benchmark", Is "engine-hotpath");
      ("profile", Text);
      ("seed", At_least 0.);
      ("quick", Flag);
      ("jobs", At_least 1.);
      ("cores_available", At_least 1.);
      ("run_all", meas_rule []);
      ("experiments", Rows (meas_rule [ ("id", Text) ]));
    ]

let stream_rule =
  Fields
    [
      ("benchmark", Is "stream-ingest");
      ("seed", At_least 0.);
      ("quick", Flag);
      ("jobs", At_least 1.);
      ("n", At_least 1.);
      ("chunk", At_least 1.);
      ( "rows",
        Rows
          (Such_that
             ( Fields
                 [
                   ("sketch", One_of [ "hist"; "ams" ]);
                   ("budget_words", At_least 1.);
                   ("words_used", At_least 1.);
                   ("samples", At_least 1.);
                   ("chunks", At_least 1.);
                   ("seconds", At_least 0.);
                   ("samples_per_sec", At_least 0.);
                   ("words_per_sample", At_least 0.);
                 ],
               [
                 ( "words_used exceeds budget_words: the memory bound is broken",
                   fun r -> want_num r "words_used" <= want_num r "budget_words" );
               ] )) );
    ]

(* Rows written before the single engine leg also carry
   run_all_speedup (the retired before/after comparison) and
   service_qps (the retired service bench); they must keep validating. *)
let history_rule =
  Fields
    ([
       ("schema", Is history_schema);
       ("git", Text);
       ("unix_time", At_least 0.);
       ("jobs", At_least 1.);
     ]
    @ List.map
        (fun f -> (f, Null_or_at_least 0.))
        (history_fields @ [ "run_all_speedup"; "service_qps" ]))

(* (path, required, one document per line, rule). The engine results
   must exist; the stream results and the history are optional, but a
   written file must conform. *)
let checked_files =
  [
    (engine_json_path, true, false, engine_rule);
    (stream_json_path, false, false, stream_rule);
    (history_json_path, false, true, history_rule);
  ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_file (path, required, lines, rule) =
  let fail msg =
    Printf.eprintf "%s: %s\n" path msg;
    exit 1
  in
  if not (Sys.file_exists path) then (if required then fail "missing")
  else begin
    let docs =
      if lines then
        String.split_on_char '\n' (read_file path)
        |> List.filter (fun l -> String.trim l <> "")
        |> List.mapi (fun i l -> (Printf.sprintf "row %d: " (i + 1), l))
      else [ ("", read_file path) ]
    in
    List.iter
      (fun (where, doc) ->
        try check "" rule (parse doc) with Malformed msg -> fail (where ^ msg))
      docs;
    Printf.printf "%s: schema ok\n%!" path
  end

(* -- Allocation-regression gate (`--gate`) ------------------------------ *)

(* Compares the words-per-trial of a fresh `--engine --quick` run
   against the committed budget in results/alloc_budget.json and fails
   if any experiment allocates past it. The budget carries ~2x headroom
   over the measured figures: words/trial is a property of the code
   path, not the machine, so anything beyond noise means per-trial
   allocations crept back into a hot loop. *)
let budget_json_path = results_file "alloc_budget.json"

let gate_alloc () =
  let fail msg =
    Printf.eprintf "alloc gate: %s\n" msg;
    exit 1
  in
  let read path =
    if not (Sys.file_exists path) then fail (path ^ ": missing");
    try parse (read_file path) with Malformed msg -> fail (path ^ ": " ^ msg)
  in
  let engine = read engine_json_path in
  let budget = read budget_json_path in
  try
    if not (want_bool engine "quick") then
      fail
        (engine_json_path
       ^ ": not a --quick run; the budget is calibrated for `--engine \
          --quick` (fixed 60-trial probes)");
    let exps =
      match field engine "experiments" with
      | Arr exps -> exps
      | _ -> fail (engine_json_path ^ ": experiments: expected array")
    in
    let budgets =
      match field budget "budgets" with
      | Arr (_ :: _ as budgets) -> budgets
      | Arr [] -> fail (budget_json_path ^ ": budgets: empty")
      | _ -> fail (budget_json_path ^ ": budgets: expected array")
    in
    let over = ref false in
    List.iter
      (fun b ->
        let id = want_str b "id" in
        let cap = want_num b "max_words_per_trial" in
        match List.find_opt (fun e -> want_str e "id" = id) exps with
        | None -> fail (id ^ ": budgeted but missing from bench_engine.json")
        | Some e ->
            let wpt =
              words_per_trial ~trials:(want_num e "trials")
                ~minor_words:(want_num e "minor_words")
            in
            let ok = wpt <= cap in
            if not ok then over := true;
            Printf.printf "%-18s %12.1f words/trial   budget %12.1f   %s\n%!"
              id wpt cap
              (if ok then "ok" else "EXCEEDED"))
      budgets;
    if !over then
      fail "per-trial allocation budget exceeded — a hot loop regressed"
    else print_endline "alloc gate: ok"
  with Malformed msg -> fail msg

let usage =
  "usage: main.exe LEG... [--quick]   run legs; LEG is --engine or --stream\n\
  \       main.exe --check            validate the results files\n\
  \       main.exe --gate             check the allocation budget"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let has flag = List.mem flag args in
  let known = [ "--engine"; "--stream"; "--quick"; "--check"; "--gate" ] in
  if List.exists (fun a -> not (List.mem a known)) args then begin
    prerr_endline usage;
    exit 2
  end;
  if has "--check" then List.iter check_file checked_files
  else if has "--gate" then gate_alloc ()
  else if has "--engine" || has "--stream" then begin
    let quick = has "--quick" in
    let engine = if has "--engine" then [ bench_engine ~quick ] else [] in
    let stream = if has "--stream" then [ bench_stream ~quick ] else [] in
    match engine @ stream with
    | (jobs, _) :: _ as legs when quick ->
        append_history ~jobs (List.concat_map snd legs)
    | _ -> ()
  end
  else begin
    prerr_endline usage;
    exit 2
  end
