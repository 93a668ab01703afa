(* Tests for Dut_obs: counter aggregation across pool domains, the
   jobs-invariance contract of the Monte-Carlo / critical-search
   tallies, span nesting and JSONL validity, the manifest schema, and
   the out-of-band guarantee — stdout byte-identical with and without
   a trace sink. *)

open Dut_obs

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let read_lines path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

let with_temp name f =
  let path = Filename.temp_file "dut_obs_test" name in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () -> f path

(* -- Json -------------------------------------------------------------- *)

let json = Alcotest.testable (fun ppf j -> Format.pp_print_string ppf (Json.to_string j)) ( = )

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("name", Json.Str "a \"quoted\"\nline\twith\\escapes");
        ("count", Json.int 42);
        ("pi", Json.Num 3.5);
        ("neg", Json.int (-7));
        ("flag", Json.Bool true);
        ("nothing", Json.Null);
        ("items", Json.Arr [ Json.int 1; Json.Str "two"; Json.Bool false ]);
        ("empty_obj", Json.Obj []);
        ("empty_arr", Json.Arr []);
      ]
  in
  Alcotest.check json "roundtrip" v (Json.parse (Json.to_string v));
  (* Integers render without a decimal point — the trace/manifest files
     stay greppable with integer tooling. *)
  Alcotest.(check string) "int rendering" "7" (Json.to_string (Json.int 7));
  (* Non-finite numbers degrade to null rather than emitting invalid JSON. *)
  Alcotest.(check string) "nan is null" "null" (Json.to_string (Json.Num Float.nan));
  (match Json.parse "null x" with
  | exception Json.Malformed _ -> ()
  | _ -> Alcotest.fail "trailing garbage accepted")

(* -- Counters ---------------------------------------------------------- *)

let test_counter_sum_across_domains () =
  let c = Metrics.counter "test.obs.domain_sum" in
  let before = Metrics.value "test.obs.domain_sum" in
  let pool = Dut_engine.Pool.create ~jobs:4 in
  Fun.protect ~finally:(fun () -> Dut_engine.Pool.shutdown pool) @@ fun () ->
  Dut_engine.Pool.run pool ~tasks:500 (fun _ -> Metrics.incr c);
  (* The pool join is the aggregation point: every per-domain tally is
     published, the snapshot sum is exact. *)
  Alcotest.(check int) "sum over domains" 500
    (Metrics.value "test.obs.domain_sum" - before);
  Alcotest.(check bool) "snapshot carries it" true
    (List.exists
       (fun (n, v) ->
         n = "test.obs.domain_sum" && v = Metrics.Count (before + 500))
       (Metrics.snapshot ()))

let pool_claims_delta ~jobs ~tasks =
  let before = Metrics.value "pool.tasks_claimed" in
  let pool = Dut_engine.Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Dut_engine.Pool.shutdown pool) @@ fun () ->
  Dut_engine.Pool.run pool ~tasks (fun _ -> ());
  Metrics.value "pool.tasks_claimed" - before

let test_pool_claims_sum_consistent () =
  (* pool.tasks_claimed is schedule-dependent per domain, but its sum
     is the number of tasks — on the inline jobs=1 path and the
     multi-domain path alike. *)
  Alcotest.(check int) "jobs=1 claims" 137 (pool_claims_delta ~jobs:1 ~tasks:137);
  Alcotest.(check int) "jobs=4 claims" 137 (pool_claims_delta ~jobs:4 ~tasks:137)

(* -- Jobs-invariance of the stats tallies ------------------------------ *)

(* One critical search whose predicate is an adaptive Monte-Carlo
   estimate: the engine's determinism contract promises the answer and
   the mc.*/search.* tallies are bit-identical for every jobs count. *)
let search_leg ~jobs =
  let rng = Dut_prng.Rng.create 42 in
  let t0 = Metrics.value "mc.trials_used" in
  let e0 = Metrics.value "mc.adaptive_early_stops" in
  let p0 = Metrics.value "search.probes" in
  let answer =
    Dut_stats.Critical.search ~lo:1 ~hi:4096 (fun q ->
        let a =
          Dut_stats.Montecarlo.estimate_prob_adaptive ~jobs ~max_trials:160
            ~target:0.7 (Dut_prng.Rng.split rng) (fun r ->
              Dut_prng.Rng.unit_float r < 0.2 +. (0.7 *. float_of_int q /. 4096.))
        in
        a.Dut_stats.Montecarlo.ci.Dut_stats.Binomial_ci.estimate >= 0.7)
  in
  ( answer,
    Metrics.value "mc.trials_used" - t0,
    Metrics.value "mc.adaptive_early_stops" - e0,
    Metrics.value "search.probes" - p0 )

let test_jobs_invariant_tallies () =
  let a1, t1, e1, p1 = search_leg ~jobs:1 in
  let a4, t4, e4, p4 = search_leg ~jobs:4 in
  Alcotest.(check bool) "search found a critical value" true (a1 <> None);
  Alcotest.(check bool) "same answer" true (a1 = a4);
  Alcotest.(check int) "mc.trials_used invariant" t1 t4;
  Alcotest.(check int) "mc.adaptive_early_stops invariant" e1 e4;
  Alcotest.(check int) "search.probes invariant" p1 p4;
  Alcotest.(check bool) "trials were spent" true (t1 > 0);
  Alcotest.(check bool) "probes were spent" true (p1 > 0)

(* -- Histograms -------------------------------------------------------- *)

let hist_of_list vs =
  let h = Histogram.create () in
  List.iter (Histogram.record h) vs;
  h

let prop_hist_merge_assoc_comm =
  QCheck.Test.make ~name:"histogram merge is associative and commutative"
    ~count:200
    QCheck.(triple (list int) (list int) (list int))
    (fun (xs, ys, zs) ->
      let a = hist_of_list xs and b = hist_of_list ys and c = hist_of_list zs in
      Histogram.equal
        (Histogram.merge a (Histogram.merge b c))
        (Histogram.merge (Histogram.merge a b) c)
      && Histogram.equal (Histogram.merge a b) (Histogram.merge b a)
      && Histogram.equal
           (Histogram.merge a b)
           (hist_of_list (xs @ ys)))

let prop_hist_buckets_bracket =
  QCheck.Test.make
    ~name:"bucket_of is monotone and lo <= v <= hi brackets every value"
    ~count:500
    QCheck.(pair (int_bound 1_000_000_000) (int_bound 1_000_000_000))
    (fun (v1, v2) ->
      let lo_v = min v1 v2 and hi_v = max v1 v2 in
      let b = Histogram.bucket_of lo_v in
      Histogram.bucket_of lo_v <= Histogram.bucket_of hi_v
      && Histogram.bucket_lo b <= lo_v
      && lo_v <= Histogram.bucket_hi b)

let prop_hist_quantile_brackets_exact =
  QCheck.Test.make
    ~name:"quantile bucket brackets the exact sorted-sample quantile"
    ~count:300
    QCheck.(pair
              (list_of_size Gen.(int_range 1 200) (int_bound 10_000_000))
              (float_range 0. 1.))
    (fun (vs, q) ->
      let h = hist_of_list vs in
      let sorted = List.sort compare vs in
      let n = List.length vs in
      let rank =
        let r = int_of_float (ceil (q *. float_of_int n)) in
        if r < 1 then 1 else if r > n then n else r
      in
      let exact = List.nth sorted (rank - 1) in
      match Histogram.quantile_bucket h q with
      | None -> false
      | Some b ->
          Histogram.bucket_lo b <= exact && exact <= Histogram.bucket_hi b)

let test_histogram_small_values_exact () =
  (* Values 0..15 are unit buckets: quantiles there are exact, and the
     summary carries the exact count and max. *)
  let h = hist_of_list [ 3; 3; 7; 12 ] in
  Alcotest.(check int) "count" 4 (Histogram.count h);
  Alcotest.(check int) "p50 exact" 3 (Histogram.q_or_zero h 0.5);
  Alcotest.(check int) "p99 exact" 12 (Histogram.q_or_zero h 0.99);
  Alcotest.(check (option int)) "max" (Some 12) (Histogram.max_value h);
  (* diff is the interval statistic between two snapshots. *)
  let later = Histogram.copy h in
  Histogram.record later 7;
  Histogram.record later 100;
  let d = Histogram.diff later h in
  Alcotest.(check int) "diff count" 2 (Histogram.count d);
  Alcotest.(check int) "reverse diff clamps to empty" 0
    (Histogram.count (Histogram.diff h later));
  (* Negative observations clamp to bucket 0. *)
  let neg = hist_of_list [ -5 ] in
  Alcotest.(check int) "negative clamps" 0 (Histogram.q_or_zero neg 1.0);
  (* Empty summary is the bare count. *)
  Alcotest.check json "empty summary"
    (Json.Obj [ ("count", Json.Num 0.) ])
    (Histogram.summary_json (Histogram.create ()))

(* A compact snapshot holds the bucket range it saw, not all 960
   buckets, so a reader that keeps one per pass pays for what it holds;
   it stays equal to its source and grows back when added to. *)
let test_histogram_snapshot_words () =
  let words h = Obj.reachable_words (Obj.repr h) in
  let recorded = hist_of_list [ 3; 7; 12 ] in
  let empty = Histogram.compact (Histogram.create ()) in
  let small = Histogram.compact recorded in
  Alcotest.(check bool) "empty snapshot under 4 words" true (words empty < 4);
  Alcotest.(check bool) "snapshot up to bucket 12 under 20 words" true
    (words small < 20);
  Alcotest.(check bool) "equal to its source" true
    (Histogram.equal small recorded && Histogram.equal recorded small);
  Alcotest.(check bool) "empty equals an empty diff" true
    (Histogram.equal empty (Histogram.diff recorded recorded));
  let grown = Histogram.compact recorded in
  Histogram.record grown 1_000_000;
  Histogram.merge_into ~into:empty recorded;
  Alcotest.(check int) "grows when recorded into" 4 (Histogram.count grown);
  Alcotest.(check bool) "grows when merged into" true
    (Histogram.equal empty recorded);
  List.iter
    (fun (name, h) ->
      if words h >= 2 * Histogram.buckets then
        Alcotest.failf "snapshot of %s holds %d words" name (words h))
    (Metrics.histogram_snapshot ())

let prop_hist_json_roundtrip =
  QCheck.Test.make
    ~name:"to_json/of_json is an exact roundtrip (the fleet-merge codec)"
    ~count:200
    QCheck.(list (int_bound 1_000_000_000))
    (fun vs ->
      let h = hist_of_list vs in
      Histogram.equal h (Histogram.of_json (Histogram.to_json h)))

let test_histogram_json_malformed () =
  List.iter
    (fun j ->
      match Histogram.of_json j with
      | exception Json.Malformed _ -> ()
      | _ -> Alcotest.failf "accepted malformed buckets %s" (Json.to_string j))
    [
      Json.Num 3.;
      Json.Arr [ Json.Num 1. ];
      Json.Arr [ Json.Arr [ Json.Num 1. ] ];
      Json.Arr [ Json.Arr [ Json.Num (-1.); Json.Num 2. ] ];
      Json.Arr [ Json.Arr [ Json.Num 1e9; Json.Num 2. ] ];
      Json.Arr [ Json.Arr [ Json.Num 1.; Json.Num (-2.) ] ];
    ]

let pool_task_hist_delta ~jobs ~tasks =
  let before = Histogram.count (Metrics.histogram_value "pool.task_ns") in
  let pool = Dut_engine.Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Dut_engine.Pool.shutdown pool) @@ fun () ->
  Dut_engine.Pool.run pool ~tasks (fun _ -> ignore (Sys.opaque_identity 0));
  Histogram.count (Metrics.histogram_value "pool.task_ns") - before

let test_pool_task_ns_sum_consistent () =
  (* pool.task_ns durations are schedule-dependent, but the observation
     count is the task count — on the inline jobs=1 path and the
     multi-domain path alike (the same contract pool.tasks_claimed
     pins). *)
  Alcotest.(check int) "jobs=1 task observations" 89
    (pool_task_hist_delta ~jobs:1 ~tasks:89);
  Alcotest.(check int) "jobs=4 task observations" 89
    (pool_task_hist_delta ~jobs:4 ~tasks:89)

(* -- Clock ------------------------------------------------------------- *)

let test_now_ns_monotone_across_domains () =
  (* The CAS max-clamp in Span.now_ns gives a process-wide monotone
     clock: non-decreasing within each domain, and a read after joining
     a domain can never be behind anything that domain saw. *)
  let reads_per_domain = 5_000 in
  let domains =
    Array.init 3 (fun _ ->
        Domain.spawn (fun () ->
            let prev = ref (Span.now_ns ()) in
            let monotone = ref true in
            for _ = 1 to reads_per_domain do
              let t = Span.now_ns () in
              if t < !prev then monotone := false;
              prev := t
            done;
            (!monotone, !prev)))
  in
  let results = Array.map Domain.join domains in
  Array.iter
    (fun (monotone, _) ->
      Alcotest.(check bool) "non-decreasing within a domain" true monotone)
    results;
  let after_join = Span.now_ns () in
  Array.iter
    (fun (_, domain_max) ->
      Alcotest.(check bool) "post-join read covers every domain" true
        (after_join >= domain_max))
    results

(* -- Spans ------------------------------------------------------------- *)

let span_records path =
  List.map
    (fun line ->
      let j = Json.parse line in
      ( int_of_float (Json.want_num j "span"),
        ( Json.want_str j "name",
          Json.field_opt j "parent",
          int_of_float (Json.want_num j "start_ns"),
          int_of_float (Json.want_num j "dur_ns"),
          Json.field_opt j "raised" <> None ) ))
    (read_lines path)

let test_span_nesting_and_jsonl () =
  with_temp ".jsonl" @@ fun path ->
  Span.set_sink (Some path);
  Alcotest.(check bool) "sink open" true (Span.enabled ());
  Span.with_ ~name:"outer" (fun () ->
      Span.with_ ~name:"inner"
        ~attrs:[ ("k", Json.Str "v") ]
        (fun () -> ignore (Sys.opaque_identity 0));
      try Span.with_ ~name:"boom" (fun () -> raise Exit) with Exit -> ());
  Span.set_sink None;
  Alcotest.(check bool) "sink closed" false (Span.enabled ());
  let spans = span_records path in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  let find name =
    let id, (_, parent, start, dur, raised) =
      List.find (fun (_, (n, _, _, _, _)) -> n = name) spans
    in
    (id, parent, start, dur, raised)
  in
  let outer_id, outer_parent, outer_start, outer_dur, _ = find "outer" in
  let _, inner_parent, inner_start, inner_dur, inner_raised = find "inner" in
  let _, boom_parent, _, _, boom_raised = find "boom" in
  Alcotest.check json "outer is a root" Json.Null
    (Option.value ~default:Json.Null outer_parent);
  Alcotest.check json "inner child of outer" (Json.int outer_id)
    (Option.get inner_parent);
  Alcotest.check json "boom child of outer" (Json.int outer_id)
    (Option.get boom_parent);
  Alcotest.(check bool) "raised flagged" true boom_raised;
  Alcotest.(check bool) "clean span unflagged" false inner_raised;
  (* Interval containment on the monotonised clock. *)
  Alcotest.(check bool) "inner starts after outer" true (inner_start >= outer_start);
  Alcotest.(check bool) "inner ends within outer" true
    (inner_start + inner_dur <= outer_start + outer_dur);
  (* Attrs survive the trip. *)
  let inner_line =
    List.find (fun l -> Json.want_str (Json.parse l) "name" = "inner") (read_lines path)
  in
  Alcotest.(check string) "attr value" "v"
    (Json.want_str (Json.field (Json.parse inner_line) "attrs") "k")

let test_span_disabled_is_passthrough () =
  Alcotest.(check bool) "no sink" false (Span.enabled ());
  Alcotest.(check int) "with_ returns" 7 (Span.with_ ~name:"noop" (fun () -> 7));
  Alcotest.check_raises "with_ reraises" Exit (fun () ->
      Span.with_ ~name:"noop" (fun () -> raise Exit))

(* -- Manifest ---------------------------------------------------------- *)

let test_manifest_schema () =
  with_temp ".json" @@ fun path ->
  let exp ?error ?(resumed = false) id seconds status =
    { Manifest.id; seconds; status; resumed; error }
  in
  let m =
    Manifest.make ~command:"run-all" ~profile:"fast" ~seed:7 ~jobs:4
      ~jobs_requested:16 ~adaptive:true ~warm_start:false ~wall_seconds:1.5
      ~cpu_seconds:4.25
      ~experiments:
        [
          exp "T1-any-rule" 0.5 "ok" ~resumed:true;
          exp "T5-centralized" 1.0 "failed" ~error:"boom";
        ]
  in
  Manifest.write ~path m;
  let j = Json.parse (read_file path) in
  Alcotest.(check string) "schema" "dut-manifest/4" (Json.want_str j "schema");
  Alcotest.(check string) "command" "run-all" (Json.want_str j "command");
  Alcotest.(check string) "status" "failed" (Json.want_str j "status");
  Alcotest.(check int) "seed" 7 (int_of_float (Json.want_num j "seed"));
  Alcotest.(check int) "jobs" 4 (int_of_float (Json.want_num j "jobs"));
  Alcotest.(check int) "jobs_requested" 16
    (int_of_float (Json.want_num j "jobs_requested"));
  Alcotest.(check bool) "adaptive" true (Json.want_bool j "adaptive");
  Alcotest.(check bool) "warm_start" false (Json.want_bool j "warm_start");
  Alcotest.(check (float 1e-9)) "cpu" 4.25 (Json.want_num j "cpu_seconds");
  (match Json.field j "experiments" with
  | Json.Arr [ e1; e2 ] ->
      Alcotest.(check string) "exp order" "T1-any-rule" (Json.want_str e1 "id");
      Alcotest.(check string) "exp status" "ok" (Json.want_str e1 "status");
      Alcotest.(check bool) "exp resumed" true (Json.want_bool e1 "resumed");
      Alcotest.(check (float 1e-9)) "exp seconds" 1.0 (Json.want_num e2 "seconds");
      Alcotest.(check string) "exp error" "boom" (Json.want_str e2 "error")
  | _ -> Alcotest.fail "experiments is not a 2-array");
  (* The counter snapshot rides along; mc.trials_used is registered by
     the stats library this test links (and exercised above). *)
  (match Json.field j "counters" with
  | Json.Obj fields ->
      Alcotest.(check bool) "mc.trials_used present" true
        (List.mem_assoc "mc.trials_used" fields)
  | _ -> Alcotest.fail "counters is not an object");
  (* /3 adds the histogram summaries next to the counters. *)
  (match Json.field j "histograms" with
  | Json.Obj _ -> ()
  | _ -> Alcotest.fail "histograms is not an object");
  Alcotest.(check string) "code identity" Manifest.code
    (Json.want_str j "code");
  Alcotest.(check string) "code = source digest + compiler"
    ("+ocaml-" ^ Sys.ocaml_version)
    (String.sub Manifest.code 32 (String.length Manifest.code - 32));
  Alcotest.(check bool) "source digest is 32 hex digits" true
    (String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       (String.sub Manifest.code 0 32))

(* -- Store ------------------------------------------------------------- *)

let with_store_dir f =
  let dir = Filename.temp_file "dut_store" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

(* Store [key] alone in a fresh [dir] and return its entry file. *)
let stored_file ~dir ~key payload =
  let before = Sys.readdir dir in
  Store.store ~dir ~key payload;
  match
    List.filter
      (fun f -> not (Array.mem f before))
      (Array.to_list (Sys.readdir dir))
  with
  | [ f ] -> Filename.concat dir f
  | _ -> Alcotest.fail "store did not publish exactly one file"

let test_store_roundtrip () =
  with_store_dir @@ fun dir ->
  Alcotest.(check (option string)) "miss before any store" None
    (Store.find ~dir ~key:"k");
  Store.store ~dir ~key:"k" "payload\nwith a newline";
  Alcotest.(check (option string)) "stored payload found"
    (Some "payload\nwith a newline") (Store.find ~dir ~key:"k");
  Alcotest.(check (option string)) "another key misses" None
    (Store.find ~dir ~key:"k2")

let test_store_other_code_is_a_miss () =
  with_store_dir @@ fun dir ->
  let file = stored_file ~dir ~key:"k" "payload" in
  let content = read_file file in
  let other = String.make 32 '0' ^ "+ocaml-" ^ Sys.ocaml_version in
  let swapped =
    Astring.String.cuts ~sep:Manifest.code content
    |> String.concat other
  in
  Alcotest.(check bool) "header names the code identity" true
    (swapped <> content);
  Out_channel.with_open_bin file (fun oc -> output_string oc swapped);
  Alcotest.(check (option string)) "entry of other code reads as a miss"
    None (Store.find ~dir ~key:"k")

(* An empty payload leaves the header's newline as the entry's last
   byte: cut that byte and the header line must no longer verify. *)
let test_store_header_needs_newline () =
  with_store_dir @@ fun dir ->
  let file = stored_file ~dir ~key:"aa" "" in
  let content = read_file file in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc (String.sub content 0 (String.length content - 1)));
  Alcotest.(check (option string)) "entry cut by its newline misses" None
    (Store.find ~dir ~key:"aa")

(* Whatever happens to an entry's file, find answers the exact stored
   payload or a miss: never an exception, never another key's bytes. *)
let prop_store_damage_never_misleads =
  let damage =
    QCheck.(
      quad (int_bound 3) (pair (int_bound 1_000_000) (int_range 1 255))
        (string_gen_of_size (Gen.int_bound 300) Gen.char)
        (pair small_string small_string))
  in
  QCheck.Test.make ~name:"damaged entry: exact payload or miss" ~count:200
    damage (fun (how, (pos, bits), junk, (key, payload)) ->
      with_store_dir @@ fun dir ->
      let other_payload = payload ^ "!" in
      let file = stored_file ~dir ~key payload in
      let other = stored_file ~dir ~key:(key ^ "'") other_payload in
      let content = read_file file in
      let n = String.length content in
      let damaged =
        match how with
        | 0 -> String.sub content 0 (pos mod n)
        | 1 ->
            let b = Bytes.of_string content in
            let i = pos mod n in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor bits));
            Bytes.to_string b
        | 2 ->
            let nl = String.index content '\n' in
            junk ^ String.sub content nl (n - nl)
        | _ -> read_file other
      in
      Out_channel.with_open_bin file (fun oc -> output_string oc damaged);
      match Store.find ~dir ~key with
      | None -> true
      | Some p -> p = payload && damaged = content)

(* -- Out-of-band guarantee --------------------------------------------- *)

module Registry = Dut_experiments.Registry
module Runner = Dut_experiments.Runner
module Config = Dut_experiments.Config

let run_registry_experiment ~trace path =
  (match Registry.find "T8-combinatorics" with
  | None -> Alcotest.fail "T8-combinatorics not registered"
  | Some exp ->
      Span.set_sink trace;
      Fun.protect ~finally:(fun () -> Span.set_sink None) @@ fun () ->
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
      ignore
        (Runner.run_to_channel ~timings:false
           (Config.make ~trials:20 Config.Fast)
           exp oc));
  read_file path

let test_stdout_identical_with_trace () =
  with_temp ".out" @@ fun out_plain ->
  with_temp ".out" @@ fun out_traced ->
  with_temp ".jsonl" @@ fun trace ->
  let plain = run_registry_experiment ~trace:None out_plain in
  let traced = run_registry_experiment ~trace:(Some trace) out_traced in
  Alcotest.(check string) "output bytes identical" plain traced;
  let lines = read_lines trace in
  Alcotest.(check bool) "trace nonempty" true (lines <> []);
  (* Every line parses and carries the span schema; exactly one
     experiment root span for the run. *)
  let names =
    List.map
      (fun l ->
        let j = Json.parse l in
        ignore (Json.want_num j "span");
        ignore (Json.want_num j "start_ns");
        ignore (Json.want_num j "dur_ns");
        ignore (Json.want_num j "domain");
        Json.want_str j "name")
      lines
  in
  Alcotest.(check int) "one experiment span" 1
    (List.length (List.filter (( = ) "experiment") names));
  Alcotest.(check bool) "table spans present" true (List.mem "table" names)

let test_stdout_identical_with_sampler () =
  with_temp ".out" @@ fun out_plain ->
  with_temp ".out" @@ fun out_sampled ->
  with_temp ".jsonl" @@ fun timeline ->
  let plain = run_registry_experiment ~trace:None out_plain in
  Timeline.start ~path:timeline ~interval_ms:10 ();
  let sampled =
    Fun.protect ~finally:Timeline.stop @@ fun () ->
    run_registry_experiment ~trace:None out_sampled
  in
  Alcotest.(check bool) "sampler stopped" false (Timeline.enabled ());
  Alcotest.(check string) "output bytes identical" plain sampled;
  match read_lines timeline with
  | [] -> Alcotest.fail "timeline file is empty"
  | header :: samples ->
      let h = Json.parse header in
      Alcotest.(check string) "timeline schema" "dut-timeline/1"
        (Json.want_str h "schema");
      Alcotest.(check int) "interval recorded" 10
        (int_of_float (Json.want_num h "interval_ms"));
      (* stop always flushes a final sample, so even a sub-interval run
         produces at least one. *)
      Alcotest.(check bool) "at least one sample" true (samples <> []);
      List.iter
        (fun line ->
          let s = Json.parse line in
          ignore (Json.want_num s "t_ns");
          ignore (Json.want_num (Json.field s "gc") "minor_words");
          match
            ( Json.field s "counters",
              Json.field s "gauges",
              Json.field s "histograms" )
          with
          | Json.Obj _, Json.Obj _, Json.Obj _ -> ()
          | _ -> Alcotest.fail "sample members are not objects")
        samples

(* -- Profile ------------------------------------------------------------ *)

let span_line ~id ~name ~parent ~start ~dur =
  Printf.sprintf
    {|{"name":%S,"span":%d,"parent":%s,"domain":0,"start_ns":%d,"dur_ns":%d}|}
    name id
    (if parent < 0 then "null" else string_of_int parent)
    start dur

let write_file path content =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc content

(* run(0..100) > a(10..40) > leaf(15..25); a again at 50..70. Self:
   run 100-(30+20)=50, a 20+20=40, leaf 10. *)
let synthetic_trace =
  String.concat "\n"
    [
      span_line ~id:0 ~name:"run" ~parent:(-1) ~start:0 ~dur:100;
      span_line ~id:1 ~name:"a" ~parent:0 ~start:10 ~dur:30;
      span_line ~id:2 ~name:"leaf" ~parent:1 ~start:15 ~dur:10;
      span_line ~id:3 ~name:"a" ~parent:0 ~start:50 ~dur:20;
    ]
  ^ "\n"

let test_profile_aggregate_and_folded () =
  with_temp ".jsonl" @@ fun path ->
  write_file path synthetic_trace;
  match Profile.read_file path with
  | Error msg -> Alcotest.fail msg
  | Ok { Profile.spans; truncated } ->
      Alcotest.(check bool) "complete file" false truncated;
      Alcotest.(check int) "four spans" 4 (List.length spans);
      let aggs = Profile.aggregate spans in
      let names = List.map (fun a -> a.Profile.agg_name) aggs in
      (* Sorted by self time descending: run 50, a 40, leaf 10. *)
      Alcotest.(check (list string)) "self-time order" [ "run"; "a"; "leaf" ]
        names;
      let find n = List.find (fun a -> a.Profile.agg_name = n) aggs in
      Alcotest.(check int) "run self" 50 (find "run").Profile.self_ns;
      Alcotest.(check int) "a self" 40 (find "a").Profile.self_ns;
      Alcotest.(check int) "a count" 2 (find "a").Profile.count;
      Alcotest.(check int) "a total" 50 (find "a").Profile.total_ns;
      Alcotest.(check int) "a max" 30 (find "a").Profile.max_ns;
      Alcotest.(check int) "total self" 100 (Profile.total_self_ns spans);
      Alcotest.(check int) "total self except run" 50
        (Profile.total_self_ns ~except:[ "run" ] spans);
      Alcotest.(check int) "wall extent" 100 (Profile.wall_ns spans);
      Alcotest.(check (list (pair string int))) "folded stacks"
        [ ("run", 50); ("run;a", 40); ("run;a;leaf", 10) ]
        (Profile.folded spans)

let test_profile_lint_cases () =
  (* Empty trace: valid, no spans — the CLI warns but exits 0. *)
  with_temp ".jsonl" (fun path ->
      write_file path "";
      match Profile.read_file path with
      | Ok { Profile.spans = []; truncated = false } -> ()
      | Ok _ -> Alcotest.fail "empty file produced spans"
      | Error msg -> Alcotest.fail msg);
  (* A partial final line is truncation evidence, not a parse error:
     every complete span is still returned. *)
  with_temp ".jsonl" (fun path ->
      write_file path
        (synthetic_trace ^ {|{"name":"torn","span":9,"paren|});
      match Profile.read_file path with
      | Ok { Profile.spans; truncated } ->
          Alcotest.(check bool) "truncated flagged" true truncated;
          Alcotest.(check int) "complete spans kept" 4 (List.length spans)
      | Error msg -> Alcotest.fail msg);
  (* A malformed *complete* line is corruption, not truncation. *)
  with_temp ".jsonl" (fun path ->
      write_file path (synthetic_trace ^ "not json\n");
      match Profile.read_file path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "malformed complete line accepted")

(* ---------------------------------------------------------------------- *)

let () =
  Alcotest.run "dut_obs"
    [
      ("json", [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip ]);
      ( "metrics",
        [
          Alcotest.test_case "sum across domains" `Quick
            test_counter_sum_across_domains;
          Alcotest.test_case "pool claims sum-consistent" `Quick
            test_pool_claims_sum_consistent;
          Alcotest.test_case "pool task_ns sum-consistent" `Quick
            test_pool_task_ns_sum_consistent;
          Alcotest.test_case "jobs-invariant tallies" `Quick
            test_jobs_invariant_tallies;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "small values exact" `Quick
            test_histogram_small_values_exact;
          Alcotest.test_case "malformed bucket json rejected" `Quick
            test_histogram_json_malformed;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              prop_hist_merge_assoc_comm;
              prop_hist_buckets_bracket;
              prop_hist_quantile_brackets_exact;
              prop_hist_json_roundtrip;
            ]
        @ [
            Alcotest.test_case "snapshot words follow its range" `Quick
              test_histogram_snapshot_words;
          ] );
      ( "clock",
        [
          Alcotest.test_case "now_ns monotone across domains" `Quick
            test_now_ns_monotone_across_domains;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and jsonl" `Quick
            test_span_nesting_and_jsonl;
          Alcotest.test_case "disabled passthrough" `Quick
            test_span_disabled_is_passthrough;
        ] );
      ( "manifest",
        [ Alcotest.test_case "schema" `Quick test_manifest_schema ] );
      ( "store",
        [
          Alcotest.test_case "roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "other code is a miss" `Quick
            test_store_other_code_is_a_miss;
          Alcotest.test_case "header without its newline is a miss" `Quick
            test_store_header_needs_newline;
          QCheck_alcotest.to_alcotest prop_store_damage_never_misleads;
        ] );
      ( "out-of-band",
        [
          Alcotest.test_case "stdout identical with trace" `Quick
            test_stdout_identical_with_trace;
          Alcotest.test_case "stdout identical with sampler" `Quick
            test_stdout_identical_with_sampler;
        ] );
      ( "profile",
        [
          Alcotest.test_case "aggregate and folded" `Quick
            test_profile_aggregate_and_folded;
          Alcotest.test_case "lint cases" `Quick test_profile_lint_cases;
        ] );
    ]
