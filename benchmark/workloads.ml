(* The four workloads. Each one sets up (several times, keeping the
   median), runs fixed-size passes until its time is up, checks every
   output, and in a traced run adds one traced pass and the probes.

   An operation ("op") is what the end-to-end metrics count:
   - reproduce: one whole `run-all` (all 30 experiments);
   - query-cold, query-warm: one request, as one `dut query` sends it;
   - stream-ingest: one block of samples handed to the ingester. *)

module J = Dut_obs.Json
module Runner = Dut_experiments.Runner

type metric = string * string * float  (** name, unit, value *)

type golden = Check of string | Write of string | Skip

type ctx = {
  dut : string;  (** the `dut` executable *)
  work : string;  (** scratch directory of this invocation *)
  seed : int;
  seconds : float;
  smoke : bool;  (** tiny sizes, one pass, one set-up *)
  trace_dir : string option;  (** set in a traced run *)
  golden : golden;
  jobs : int;
}

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** newest first *)
}

type outcome = {
  tally : tally;
  e2e : metric list;
  layer : metric list;  (** per-layer metrics this workload measures *)
  unreached : string list;  (** per-layer metrics of layers it never runs: 0 *)
  detail : metric list;  (** times of the layers only this workload reaches *)
  digests : (string * string) list;
  self_time : (string * Dut_obs.Profile.agg list) list;
}

let names = [ "reproduce"; "query-cold"; "query-warm"; "stream-ingest" ]

let fail t fmt =
  Printf.ksprintf
    (fun msg ->
      t.failed <- t.failed + 1;
      t.problems <- msg :: t.problems)
    fmt

(* -- Shared machinery ------------------------------------------------------ *)

(* The `dut stream` defaults: exact histogram over n = 4096, chunks of
   256 samples, growing window, alpha 0.05, eps 0.25. *)
let stream_n = 4096

let stream_config () =
  Dut_stream.Sketch.config ~kind:Dut_stream.Sketch.Hist ~n:stream_n
    ~budget_words:(Dut_stream.Sketch.exact_budget ~n:stream_n)
    ~seed:2019

type pass = {
  wall : float;  (** seconds inside the timed calls *)
  cpu : float;  (** CPU seconds of the benchmark and server processes *)
  lat : float array;  (** seconds per op *)
  counters : (string * float) list;  (** this process's counters *)
  hists : (string * Dut_obs.Histogram.t) list;
  minor_words : float;
  majors : float;
}

(* Set up [repeats] times (once in smoke mode) and keep the last set-up;
   [discard] tears down the others outside the timed region, and
   [settle] warms the kept one, untimed. The files the set-ups wrote
   reach the disk before anything else is timed, so their writeback
   does not land in the timed part. *)
let repeat_setup ctx ~repeats ~discard ?(settle = ignore) f =
  let n = if ctx.smoke then 1 else repeats in
  let times = Array.make n 0. in
  let rec go i =
    let t0 = Meas.now_ns () in
    let v = f i in
    times.(i) <- Meas.seconds_since t0;
    if i + 1 < n then begin
      discard v;
      go (i + 1)
    end
    else v
  in
  let v = go 0 in
  settle v;
  ignore (Sys.command "sync");
  (Meas.median times, v)

(* Passes while another one of the last one's length still fits in
   [ctx.seconds]; always at least one. *)
let run_passes ctx f =
  let t0 = Meas.now_ns () in
  let rec go p acc =
    let started = Meas.now_ns () in
    let acc = f p :: acc in
    let elapsed = Meas.seconds_since t0 in
    if ctx.smoke || elapsed +. Meas.seconds_since started > ctx.seconds then List.rev acc
    else go (p + 1) acc
  in
  go 0 []

(* Start of an in-process pass: counters zeroed, GC and CPU noted. *)
let in_process_start () =
  Dut_obs.Metrics.reset ();
  (Gc.quick_stat (), Meas.self_cpu_s ())

let in_process_pass (gc0, cpu0) ~wall ~lat =
  let gc1 = Gc.quick_stat () in
  {
    wall;
    cpu = Meas.self_cpu_s () -. cpu0;
    lat;
    counters =
      List.filter_map
        (fun (name, v) ->
          match v with
          | Dut_obs.Metrics.Count c -> Some (name, float_of_int c)
          | Dut_obs.Metrics.Value _ -> None)
        (Dut_obs.Metrics.snapshot ());
    hists = Dut_obs.Metrics.histogram_snapshot ();
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    majors = float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections);
  }

(* Share of the machine's cores the work kept busy. *)
let cpu_util ctx passes =
  let sum f = List.fold_left (fun acc p -> acc +. f p) 0. passes in
  ( "engine.cpu_util",
    "ratio",
    Meas.ratio (sum (fun p -> p.cpu)) (sum (fun p -> p.wall) *. float_of_int ctx.jobs) )

(* Every per-op metric is a median over the passes, so a host stall of a
   second or two costs one pass, not the run. The tail is p90: p99 did
   not repeat on a 2-vCPU guest however it was taken (ten 25 s runs,
   spread 0.26 on query-warm and 0.22 on stream-ingest as a median over
   passes, 0.32 and 0.33 pooled over the run), p90 did (0.09 and 0.11),
   and a pass (240 to 4,096 ops) holds at least 24 samples beyond it. *)
let per_pass passes f = Meas.median (Array.of_list (List.map f passes))

let end_to_end ~setup_s ~rss_mb passes =
  let ops p = float_of_int (Array.length p.lat) in
  let latency_ms q = per_pass passes (fun p -> Meas.quantile p.lat q) *. 1e3 in
  [
    ("setup_s", "s", setup_s);
    ("ops_per_s", "1/s", per_pass passes (fun p -> Meas.ratio (ops p) p.wall));
    ("latency_p50_ms", "ms", latency_ms 0.5);
    ("latency_p90_ms", "ms", latency_ms 0.9);
    ("cpu_ms_per_op", "ms", per_pass passes (fun p -> Meas.ratio p.cpu (ops p)) *. 1e3);
    ("peak_rss_mb", "MB", rss_mb);
  ]

(* Engine and statistics layers from per-pass counter totals. *)
let engine_stats ~count =
  [
    ("engine.pool_tasks", "count", count "pool.tasks_claimed");
    ( "engine.scratch_reuse_ratio",
      "ratio",
      Meas.ratio (count "scratch.reuse_hits") (count "scratch.borrows") );
    ("stats.mc_trials", "count", count "mc.trials_used");
    ("stats.mc_early_stops", "count", count "mc.adaptive_early_stops");
    ("stats.search_probes", "count", count "search.probes");
    ("stats.search_exact_hits", "count", count "search.exact_hits");
  ]

(* A counter of this process: its median over passes. *)
let counter passes name =
  per_pass passes (fun p ->
      Option.value (List.assoc_opt name p.counters) ~default:0.)

(* A histogram quantile of this process, over all passes. *)
let hist_quantile passes name q =
  let h = Dut_obs.Histogram.create () in
  List.iter
    (fun p ->
      Option.iter
        (fun x -> Dut_obs.Histogram.merge_into ~into:h x)
        (List.assoc_opt name p.hists))
    passes;
  float_of_int
    (Dut_obs.Histogram.q_or_zero h (match q with `P50 -> 0.5 | `P99 -> 0.99))

(* The engine and statistics layers when they run in this process. *)
let in_process_layers ctx passes =
  cpu_util ctx passes
  :: ("gc.major_collections", "count", per_pass passes (fun p -> p.majors))
  :: engine_stats ~count:(counter passes)

(* The pool's task latency is a layer line, not a per-layer metric: it
   reads 0 wherever no pool runs. *)
let pool_task_p99 us = ("engine.pool_task_p99_us", "us", us)

(* The per-layer metrics of the service, which only the query workloads
   reach. *)
let service_metrics =
  [
    "service.requests_per_batch"; "memo.hit_ratio"; "memo.evictions"; "memo.stores";
    "shard.routed"; "shard.stray_responses";
  ]

(* Golden digests hold at seed 2019 at full size only. *)
let golden_check ctx t ~file entries =
  match ctx.golden with
  | Skip -> ()
  | Write dir ->
      Meas.mkdir_p dir;
      Meas.write_file (Filename.concat dir file)
        (String.concat "" (List.map (fun (name, d) -> d ^ "  " ^ name ^ "\n") entries))
  | Check dir ->
      let path = Filename.concat dir file in
      let expected =
        match Meas.read_lines path with
        | exception Sys_error _ -> []
        | lines ->
            List.filter_map
              (fun l ->
                match String.split_on_char ' ' l with
                | [ d; ""; name ] -> Some (name, d)
                | _ -> None)
              lines
      in
      if expected = [] then fail t "no golden digests in %s" path
      else
        List.iter
          (fun (name, d) ->
            match List.assoc_opt name expected with
            | Some e when e = d -> ()
            | Some _ -> fail t "%s: output differs from the golden digest" name
            | None -> fail t "%s: no golden digest" name)
          entries

(* Run [f] (the traced pass) with the span sink open on
   TRACE_DIR/<name>.jsonl; [None] in an untraced run. *)
let traced ctx name f =
  match ctx.trace_dir with
  | None -> None
  | Some dir ->
      Meas.mkdir_p dir;
      let path = Filename.concat dir (name ^ ".jsonl") in
      Dut_obs.Span.set_sink (Some path);
      Some (Fun.protect ~finally:(fun () -> Dut_obs.Span.set_sink None) f)

let self_time files =
  List.filter_map
    (fun (source, path) ->
      match Dut_obs.Profile.read_file path with
      | Ok r -> Some (source, Dut_obs.Profile.aggregate r.Dut_obs.Profile.spans)
      | Error _ -> None)
    files

let probe_budget ctx = if ctx.smoke then 0.002 else 0.25

(* Trace-only layers: the overhead of tracing, the probes (traced into
   their own file, after the pass), and the self-time tables. *)
let trace_layers ctx ~name ~untraced ~traced_wall ~summary_bytes ~extra_traces =
  match (ctx.trace_dir, traced_wall) with
  | Some dir, Some traced_wall ->
      let budget_s = probe_budget ctx in
      let probe_trace = Filename.concat dir (name ^ ".probes.jsonl") in
      Dut_obs.Span.set_sink (Some probe_trace);
      let probes =
        Fun.protect
          ~finally:(fun () -> Dut_obs.Span.set_sink None)
          (fun () ->
            Probes.kernels ~budget_s
            @ Probes.layers ~budget_s ~work:ctx.work
                ~stream_config:(stream_config ()) ~summary_bytes)
      in
      let untraced_wall =
        Meas.median (Array.of_list (List.map (fun p -> p.wall) untraced))
      in
      ( ("trace.overhead_frac", "ratio", (traced_wall /. untraced_wall) -. 1.)
        :: probes,
        self_time
          (("bench", Filename.concat dir (name ^ ".jsonl"))
          :: ("probes", probe_trace) :: extra_traces) )
  | _ -> ([], [])

(* Bytes of a summary-shaped document for the summary-write probe when
   the workload ran no server: this process's counters and histograms. *)
let metrics_summary () =
  J.to_string
    (J.Obj
       [
         ( "counters",
           J.Obj
             (List.map
                (fun (n, v) ->
                  ( n,
                    match v with
                    | Dut_obs.Metrics.Count c -> J.int c
                    | Dut_obs.Metrics.Value f -> J.Num f ))
                (Dut_obs.Metrics.snapshot ())) );
         ( "histograms",
           J.Obj
             (List.map
                (fun (n, h) -> (n, Dut_obs.Histogram.summary_json h))
                (Dut_obs.Metrics.histogram_snapshot ())) );
       ])
  ^ "\n"

(* Start-up cost every `dut` invocation pays before its first sample:
   process start and module initialisation, as `dut list` shows it. *)
let cli_start ctx =
  Server.run_to_completion [| ctx.dut; "list" |]
    ~log:(Filename.concat ctx.work "list.out")

(* -- reproduce ------------------------------------------------------------- *)

let smoke_experiments = [ "F1-lemma51"; "F2-moments"; "T9-and-impossible" ]

let em_dash = "\xe2\x80\x94"

(* The run-all output split on its "# <id> — " headers. *)
let sections ids text =
  let acc = ref [] and cur = ref None and buf = Buffer.create 4096 in
  let close () =
    Option.iter (fun id -> acc := (id, Buffer.contents buf) :: !acc) !cur
  in
  List.iter
    (fun line ->
      (match
         List.find_opt
           (fun id ->
             String.starts_with ~prefix:("# " ^ id ^ " " ^ em_dash ^ " ") line)
           ids
       with
      | Some id ->
          close ();
          cur := Some id;
          Buffer.clear buf
      | None -> ());
      Buffer.add_string buf line;
      Buffer.add_char buf '\n')
    (String.split_on_char '\n' text);
  close ();
  List.rev !acc

let reproduce ctx =
  let t = { attempted = 0; failed = 0; problems = [] } in
  let experiments =
    if ctx.smoke then
      Some (List.filter_map Dut_experiments.Registry.find smoke_experiments)
    else None
  in
  let ids =
    List.map
      (fun e -> e.Dut_experiments.Exp.id)
      (Option.value experiments ~default:Dut_experiments.Registry.all)
  in
  let dir = ctx.work in
  let prepare name =
    ( Meas.fresh_dir (Filename.concat dir name),
      Dut_experiments.Config.make ~seed:ctx.seed ~jobs:ctx.jobs
        Dut_experiments.Config.Fast )
  in
  let setup_s, _ =
    repeat_setup ctx ~repeats:21 ~discard:ignore (fun i ->
        cli_start ctx;
        prepare (Printf.sprintf "setup%d" i))
  in
  let pass ~traced p =
    let d, cfg = prepare (Printf.sprintf "pass%d" p) in
    let out = Filename.concat d "out.txt" in
    let start = in_process_start () in
    let t0 = Meas.now_ns () in
    let report =
      Out_channel.with_open_bin out (fun oc ->
          let run () =
            Runner.run_all_to_channel ~timings:false
              ~checkpoint_dir:(Filename.concat d "checkpoints")
              ?experiments cfg oc
          in
          if traced then Dut_obs.Span.with_ ~name:"bench.run_all" run else run ())
    in
    let wall = Meas.seconds_since t0 in
    let pass = in_process_pass start ~wall ~lat:[| wall |] in
    t.attempted <- t.attempted + List.length ids;
    List.iter
      (fun (o : Runner.outcome) ->
        if o.status <> Runner.Ok then fail t "%s: did not complete" o.id)
      report.Runner.experiments;
    let secs = sections ids (Meas.read_file out) in
    List.iter
      (fun (id, text) ->
        if
          List.exists
            (fun l -> String.starts_with ~prefix:"# ERROR" l)
            (String.split_on_char '\n' text)
        then fail t "%s: # ERROR block" id)
      secs;
    if List.map fst secs <> ids then fail t "run-all output lacks experiment headers";
    (pass, report, List.map (fun (id, text) -> (id, Meas.md5 text)) secs)
  in
  let runs = run_passes ctx (pass ~traced:false) in
  let rss_mb = Meas.vm_hwm_mb 0 in
  let passes = List.map (fun (p, _, _) -> p) runs in
  let _, _, digests = List.hd runs in
  List.iter
    (fun (_, _, d) -> if d <> digests then fail t "run-all output differs between passes")
    runs;
  golden_check ctx t ~file:"reproduce.md5" digests;
  let traced_wall =
    traced ctx "reproduce" (fun () ->
        let p, _, d = pass ~traced:true (List.length runs) in
        if d <> digests then fail t "traced run-all output differs from untraced";
        p.wall)
  in
  let reports = List.map (fun (_, r, _) -> r) runs in
  let detail =
    List.map
      (fun id ->
        ( "runner." ^ id ^ "_s",
          "s",
          per_pass reports (fun r ->
              match
                List.find_opt (fun (o : Runner.outcome) -> o.id = id) r.Runner.experiments
              with
              | Some o -> o.seconds
              | None -> 0.) ))
      ids
    @ [
        ("runner.cpu_s", "s", per_pass reports (fun r -> r.Runner.cpu_seconds));
        pool_task_p99 (hist_quantile passes "pool.task_ns" `P99 /. 1e3);
      ]
  in
  let runner =
    [
      ( "runner.parallel_efficiency",
        "ratio",
        per_pass reports (fun r ->
            Meas.ratio r.Runner.cpu_seconds (r.Runner.wall_seconds *. float_of_int ctx.jobs)) );
      ( "gc.minor_words_per_trial",
        "words",
        per_pass passes (fun p ->
            Meas.ratio p.minor_words
              (Option.value (List.assoc_opt "mc.trials_used" p.counters) ~default:0.)) );
    ]
  in
  let trace, self_time =
    trace_layers ctx ~name:"reproduce" ~untraced:passes ~traced_wall
      ~summary_bytes:(metrics_summary ()) ~extra_traces:[]
  in
  {
    tally = t;
    e2e = end_to_end ~setup_s ~rss_mb passes;
    layer = runner @ in_process_layers ctx passes @ trace;
    unreached = "gc.minor_words_per_sample" :: "stream.chunks" :: service_metrics;
    detail;
    digests = [ ("reproduce", Meas.md5 (String.concat "" (List.map snd digests))) ];
    self_time;
  }

(* -- Query workloads -------------------------------------------------------- *)

(* A request and, when the workload knows it, the exact response line
   it must get back. *)
type request = { query : Gen.query; expect : string option }

(* Closed loop: [clients] domains (this one and clients - 1 spawned),
   each with one request in flight and no think time; request i goes to
   client i mod clients. Each request is one Client.run call, exactly
   what one `dut query` does; its output goes to a pipe that the client
   drains after the call, so no file is written. Returns the wall time,
   and per request the latency, exit code and response line ("" when
   nothing came back). *)
let closed_loop ~socket ~clients ~traced (lines : string array) =
  let n = Array.length lines in
  let lat = Array.make n 0. and codes = Array.make n 0 in
  let responses = Array.make n "" in
  let client d () =
    let r, w = Unix.pipe ~cloexec:true () in
    Unix.set_nonblock r;
    let out = Unix.out_channel_of_descr w in
    let buf = Bytes.create 4096 and acc = Buffer.create 256 in
    let rec drain () =
      match Unix.read r buf 0 (Bytes.length buf) with
      | 0 -> ()
      | len ->
          Buffer.add_subbytes acc buf 0 len;
          drain ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    in
    Fun.protect
      ~finally:(fun () ->
        close_out_noerr out;
        Unix.close r)
      (fun () ->
        let i = ref d in
        while !i < n do
          let ask () = Server.ask ~socket ~out lines.(!i) in
          let t0 = Meas.now_ns () in
          codes.(!i) <-
            (if traced then Dut_obs.Span.with_ ~name:"bench.request" ask
             else ask ());
          lat.(!i) <- Meas.seconds_since t0;
          Buffer.clear acc;
          drain ();
          responses.(!i) <- String.trim (Buffer.contents acc);
          i := !i + clients
        done)
  in
  let t0 = Meas.now_ns () in
  let others = List.init (clients - 1) (fun d -> Domain.spawn (client (d + 1))) in
  client 0 ();
  List.iter Domain.join others;
  (Meas.seconds_since t0, lat, codes, responses)

(* An ok response carrying a value of the query's type. *)
let well_typed (q : Gen.query) response =
  match J.parse response with
  | exception J.Malformed _ -> false
  | j -> (
      match (J.field_opt j "status", J.field_opt j "value", q.kind) with
      | Some (J.Str "ok"), Some (J.Bool _), Gen.Power -> true
      | Some (J.Str "ok"), Some (J.Num f), Gen.Critical hi ->
          Float.is_integer f && f >= 1. && f <= float_of_int hi
      | Some (J.Str "ok"), Some (J.Num f), Gen.Bound -> Float.is_finite f
      | _ -> false)

let check_responses t (reqs : request array) codes responses =
  t.attempted <- t.attempted + Array.length reqs;
  Array.iteri
    (fun i r ->
      if codes.(i) <> 0 then fail t "request %d: dut query exit %d" i codes.(i)
      else
        match r.expect with
        | Some e when e <> responses.(i) ->
            fail t "request %d: %s differs from the earlier answer %s" i
              responses.(i) e
        | Some _ -> ()
        | None ->
            if not (well_typed r.query responses.(i)) then
              fail t "request %d: bad response %s" i responses.(i))
    reqs

let ask_all t srv ~clients ~traced reqs =
  let wall, lat, codes, responses =
    closed_loop ~socket:srv.Server.socket ~clients ~traced
      (Array.map (fun r -> r.query.Gen.line) reqs)
  in
  check_responses t reqs codes responses;
  (wall, lat, responses)

let rec num j = function
  | [] -> ( match j with J.Num f -> f | _ -> 0.)
  | k :: rest -> (
      match j with
      | J.Obj _ -> (
          match J.field_opt j k with Some v -> num v rest | None -> 0.)
      | _ -> 0.)

let kind_name = function
  | Gen.Bound -> "bound"
  | Gen.Power -> "power"
  | Gen.Critical _ -> "critical"

(* Server-side layers of the timed passes: the closing summaries less
   the ones read just before the first timed pass, which count the
   readiness probe and any warm-up as well. Worker counters are summed
   (per pass) and request latency merged exactly from the workers'
   buckets. The pool and memo quantiles exist only as summaries, so
   they cover the server's whole life, at their worst shard. *)
let service_layers (workers0, fleet0) (workers1, fleet1) ~npasses ~client_p50_s
    ~kind_p50_s =
  let sum name =
    List.fold_left2
      (fun acc w0 w1 -> acc +. num w1 [ "counters"; name ] -. num w0 [ "counters"; name ])
      0. workers0 workers1
  in
  let per_pass x = x /. float_of_int npasses in
  let hmax name key =
    List.fold_left
      (fun acc w -> Float.max acc (num w [ "histograms"; name; key ]))
      0. workers1
  in
  let request = Dut_obs.Histogram.create () in
  List.iter2
    (fun w0 w1 ->
      let buckets w = Dut_obs.Histogram.of_json (J.field w "latency_buckets") in
      Dut_obs.Histogram.merge_into ~into:request
        (Dut_obs.Histogram.diff (buckets w1) (buckets w0)))
    workers0 workers1;
  let request_us q = float_of_int (Dut_obs.Histogram.q_or_zero request q) /. 1e3 in
  let router =
    match (fleet0, fleet1) with
    | Some f0, Some f1 ->
        let delta key = per_pass (num f1 [ "router"; key ] -. num f0 [ "router"; key ]) in
        [
          ("shard.routed", "count", delta "routed");
          ("shard.stray_responses", "count", delta "stray_responses");
        ]
    | _ -> []
  in
  let hits = sum "cache.hits" and misses = sum "cache.misses" in
  ( [
      ( "service.requests_per_batch",
        "ratio",
        Meas.ratio (sum "service.requests") (sum "service.batches") );
      ("memo.evictions", "count", per_pass (sum "cache.evictions"));
      ("memo.stores", "count", per_pass (sum "cache.stores"));
      ("memo.hit_ratio", "ratio", Meas.ratio hits (hits +. misses));
    ]
    @ router
    @ engine_stats ~count:(fun n -> per_pass (sum n)),
    [
      pool_task_p99 (hmax "pool.task_ns" "p99" /. 1e3);
      ("service.server_request_p50_us", "us", request_us 0.5);
      ("service.server_request_p99_us", "us", request_us 0.99);
      ( "service.client_overhead_p50_us",
        "us",
        (client_p50_s *. 1e6) -. request_us 0.5 );
      ("memo.load_p50_us", "us", hmax "memo.load_ns" "p50" /. 1e3);
      ("memo.load_p99_us", "us", hmax "memo.load_ns" "p99" /. 1e3);
      ("memo.store_p50_us", "us", hmax "memo.store_ns" "p50" /. 1e3);
      ("query.power_p50_ms", "ms", kind_p50_s "power" *. 1e3);
      ("query.critical_p50_ms", "ms", kind_p50_s "critical" *. 1e3);
    ] )

(* What the two query workloads share. [setup] starts a ready server in
   a directory and returns it with the workload's state; [settle] warms
   the kept one, untimed; [requests] gives pass [p]'s requests;
   [restart] starts the traced pass's server; [digest] names and
   digests the output the golden file pins, from the state and the
   first pass's responses. *)
let service_workload ctx ~name ~repeats ~settle ~setup ~requests ~restart ~digest =
  let t = { attempted = 0; failed = 0; problems = [] } in
  let dir = ctx.work in
  let setup_s, (srv, state) =
    repeat_setup ctx ~repeats
      ~discard:(fun (srv, _) -> Server.stop srv)
      ~settle:(settle t)
      (fun i -> setup t (Meas.fresh_dir (Filename.concat dir (Printf.sprintf "s%d" i))))
  in
  let before = Server.summaries srv in
  let pass ~traced srv p =
    let reqs = requests state p in
    let cpu0 = Meas.self_cpu_s () +. Server.cpu_s srv in
    let wall, lat, responses = ask_all t srv ~clients:ctx.jobs ~traced reqs in
    let cpu = Meas.self_cpu_s () +. Server.cpu_s srv -. cpu0 in
    ( { wall; cpu; lat; counters = []; hists = []; minor_words = 0.; majors = 0. },
      reqs,
      responses )
  in
  let runs = run_passes ctx (pass ~traced:false srv) in
  let passes = List.map (fun (p, _, _) -> p) runs in
  let rss_mb = Server.rss_mb srv +. Meas.vm_hwm_mb 0 in
  Server.stop srv;
  let kind_p50_s kind =
    let lat =
      List.concat_map
        (fun (p, reqs, _) ->
          List.filteri
            (fun i _ -> kind_name reqs.(i).query.Gen.kind = kind)
            (Array.to_list p.lat))
        runs
    in
    Meas.quantile (Array.of_list lat) 0.5
  in
  let layers, detail =
    service_layers before (Server.summaries srv) ~npasses:(List.length passes)
      ~client_p50_s:
        (Meas.quantile (Array.concat (List.map (fun p -> p.lat) passes)) 0.5)
      ~kind_p50_s
  in
  let summary_bytes = Meas.read_file (Server.worker_summary srv 0) in
  let serve_trace =
    Option.map (fun d -> Filename.concat d (name ^ ".serve.jsonl")) ctx.trace_dir
  in
  let traced_wall =
    traced ctx name (fun () ->
        let srv =
          Dut_obs.Span.with_ ~name:"bench.setup" (fun () ->
              restart state
                ~dir:(Meas.fresh_dir (Filename.concat dir "traced"))
                ~trace:serve_trace)
        in
        let p, _, _ = pass ~traced:true srv (List.length runs) in
        Server.stop srv;
        p.wall)
  in
  let trace, self_time =
    trace_layers ctx ~name ~untraced:passes ~traced_wall ~summary_bytes
      ~extra_traces:
        (match serve_trace with Some path -> [ ("serve", path) ] | None -> [])
  in
  let _, _, first = List.hd runs in
  let entry, d = digest state first in
  golden_check ctx t ~file:(name ^ ".md5") [ (entry, d) ];
  {
    tally = t;
    e2e = end_to_end ~setup_s ~rss_mb passes;
    layer = (cpu_util ctx passes :: layers) @ trace;
    unreached =
      [
        "gc.minor_words_per_trial"; "gc.minor_words_per_sample"; "gc.major_collections";
        "runner.parallel_efficiency"; "stream.chunks";
      ]
      @ if srv.Server.shards > 1 then [] else [ "shard.routed"; "shard.stray_responses" ];
    detail;
    digests = [ (name, d) ];
    self_time;
  }

let lines_digest responses = Meas.md5 (String.concat "\n" (Array.to_list responses))

(* query-warm's workers run one domain each: the fleet's shards and the
   clients supply the parallelism, and a hit needs no engine. The cold
   server runs nproc domains (ctx.jobs): on a 2-vCPU guest whose vCPUs
   each speed up and slow down for seconds at a time, a one-domain
   server sat on one vCPU and read 116-171 req/s over ten 20 s runs
   (spread 0.30; CPU ms per request 0.33), while a two-domain one,
   alternated with it, read 159-184 req/s (spread 0.12; 0.12). *)
let warm_server_jobs = 1

(* The readiness probe of the cold server: a bound, never a timed key. *)
let cold_probe =
  {|{"kind":"bound","name":"centralized","params":{"n":4096,"eps":0.25}}|}

(* Pass sizes: queries per cold pass, warm keys, requests per warm pass,
   samples per stream block and blocks per stream pass. *)
let cold_count ~smoke = if smoke then 12 else 240
let warm_keys ~smoke = if smoke then 64 else 2048
let warm_count ~smoke = if smoke then 256 else 4096
let stream_block ~smoke = if smoke then 1 lsl 12 else 1 lsl 14
let stream_blocks ~smoke = if smoke then 4 else 256

let query_cold ctx =
  let count = cold_count ~smoke:ctx.smoke in
  let start ?trace dir =
    Server.start ~dut:ctx.dut ~dir ~memo:(Filename.concat dir "memo")
      ~jobs:ctx.jobs ~shards:1 ?trace ~probe:cold_probe ()
  in
  service_workload ctx ~name:"query-cold" ~repeats:21
    ~settle:(fun _ _ -> ())
    ~setup:(fun _ dir -> (start dir, ()))
    ~requests:(fun () p ->
      Array.map
        (fun query -> { query; expect = None })
        (Gen.cold_queries ~smoke:ctx.smoke ~seed:ctx.seed ~pass:p ~count))
    ~restart:(fun () ~dir ~trace -> start ?trace dir)
    ~digest:(fun () first -> ("pass0", lines_digest first))

(* Request sequence of the warm-up pass; timed passes count from 0. *)
let warm_up_pass = 1000

let query_warm ctx =
  let nkeys = warm_keys ~smoke:ctx.smoke in
  let count = warm_count ~smoke:ctx.smoke in
  let keys = Gen.warm_keys ~seed:ctx.seed ~count:nkeys in
  let zipf = Gen.zipf ~seed:ctx.seed nkeys in
  let start ?trace dir memo =
    Server.start ~dut:ctx.dut ~dir ~memo ~jobs:warm_server_jobs ~shards:ctx.jobs ?trace
      ~probe:keys.(0).Gen.line ()
  in
  let requests fill p =
    Array.map
      (fun i -> { query = keys.(i); expect = Some fill.(i) })
      (Gen.zipf_requests zipf ~seed:ctx.seed ~pass:p ~count)
  in
  (* Set-up: a server on a fresh memo store answers every key once, then
     restarts. One unmeasured pass then fills the kept server's memory
     front: the timed server starts warm, its counters seeing only the
     warm-up and the timed requests. *)
  let setup t dir =
    let memo = Filename.concat dir "memo" in
    let srv = start (Filename.concat dir "fill") memo in
    let _, _, fill =
      ask_all t srv ~clients:ctx.jobs ~traced:false
        (Array.map (fun query -> { query; expect = None }) keys)
    in
    Server.stop srv;
    (start (Filename.concat dir "timed") memo, (memo, fill))
  in
  let warm_up t (srv, (_, fill)) =
    ignore (ask_all t srv ~clients:ctx.jobs ~traced:false (requests fill warm_up_pass))
  in
  service_workload ctx ~name:"query-warm" ~repeats:3 ~settle:warm_up ~setup
    ~requests:(fun (_, fill) p -> requests fill p)
    ~restart:(fun (memo, _) ~dir ~trace -> start ?trace dir memo)
    ~digest:(fun (_, fill) _ -> ("fill", lines_digest fill))

(* -- stream-ingest ---------------------------------------------------------- *)

let verdict_line (v : Dut_stream.Anytime.verdict) =
  let fl = Printf.sprintf "%.6g" in
  Printf.sprintf
    "checkpoint %d samples=%d window=%d stat=%s threshold=%s alpha_spent=%s \
     verdict=%s"
    v.index v.samples_seen v.window_samples (fl v.stat) (fl v.threshold)
    (fl v.alpha_spent)
    (if v.reject then "reject" else "accept")

let stream_ingest ctx =
  let t = { attempted = 0; failed = 0; problems = [] } in
  let block = stream_block ~smoke:ctx.smoke in
  let blocks = stream_blocks ~smoke:ctx.smoke in
  let observe_ns = ref 0 in
  let traced_observe = ref false in
  let prepare () =
    let cfg = stream_config () in
    let r =
      Dut_stream.Anytime.create ~window:Dut_stream.Anytime.Growing ~alpha:0.05
        ~every:1 ~eps:0.25 cfg
    in
    let on_chunk sk =
      let t0 = Meas.now_ns () in
      let obs () = ignore (Dut_stream.Anytime.observe r sk) in
      if !traced_observe then Dut_obs.Span.with_ ~name:"bench.observe" obs
      else obs ();
      observe_ns := !observe_ns + (Meas.now_ns () - t0)
    in
    (r, Dut_stream.Ingest.create ~jobs:ctx.jobs ~chunk:256 ~on_chunk cfg)
  in
  let setup_s, _ =
    repeat_setup ctx ~repeats:21 ~discard:ignore (fun _ ->
        cli_start ctx;
        prepare ())
  in
  let buf = Array.make block 0 in
  let pass ~traced _ =
    let r, ingest =
      if traced then Dut_obs.Span.with_ ~name:"bench.setup" prepare else prepare ()
    in
    traced_observe := traced;
    observe_ns := 0;
    let st = Gen.stream_state ~seed:ctx.seed in
    let start = in_process_start () in
    let lat = Array.make blocks 0. in
    let cpu = ref 0. in
    let timed f =
      let c0 = Meas.self_cpu_s () and t0 = Meas.now_ns () in
      if traced then Dut_obs.Span.with_ ~name:"bench.feed" f else f ();
      cpu := !cpu +. Meas.self_cpu_s () -. c0;
      Meas.seconds_since t0
    in
    for b = 0 to blocks - 1 do
      Gen.fill_uniform st ~n:stream_n buf;
      lat.(b) <- timed (fun () -> Dut_stream.Ingest.feed_array ingest buf)
    done;
    let flush_s = timed (fun () -> Dut_stream.Ingest.flush ingest) in
    let p = in_process_pass start ~wall:(Meas.sum lat +. flush_s) ~lat in
    let final = Dut_stream.Anytime.final r in
    let verdicts =
      List.map verdict_line (Dut_stream.Anytime.verdicts r)
      @ [
          Printf.sprintf "final samples=%d stat=%.6g cutoff=%.6g verdict=%s"
            final.samples_seen final.stat final.threshold
            (if final.reject then "reject" else "accept");
        ]
    in
    t.attempted <- t.attempted + blocks;
    if final.samples_seen <> block * blocks then
      fail t "the referee saw %d of %d samples" final.samples_seen (block * blocks);
    ( { p with cpu = !cpu },
      float_of_int !observe_ns /. 1e9,
      Meas.md5 (String.concat "\n" verdicts) )
  in
  let runs = run_passes ctx (pass ~traced:false) in
  let rss_mb = Meas.vm_hwm_mb 0 in
  let passes = List.map (fun (p, _, _) -> p) runs in
  let _, _, digest = List.hd runs in
  List.iter
    (fun (_, _, d) -> if d <> digest then fail t "verdicts differ between passes")
    runs;
  golden_check ctx t ~file:"stream-ingest.md5" [ ("verdicts", digest) ];
  let traced_wall =
    traced ctx "stream-ingest" (fun () ->
        let p, _, d = pass ~traced:true (List.length runs) in
        if d <> digest then fail t "traced verdicts differ from untraced";
        p.wall)
  in
  let samples = float_of_int (block * blocks) in
  let detail =
    [
      ("stream.observe_s", "s", per_pass runs (fun (_, obs, _) -> obs));
      ("stream.sketch_s", "s", per_pass runs (fun (p, obs, _) -> p.wall -. obs));
      ( "stream.chunk_p50_us",
        "us",
        hist_quantile passes "ingest.chunk_ns" `P50 /. 1e3 );
      pool_task_p99 (hist_quantile passes "pool.task_ns" `P99 /. 1e3);
    ]
  in
  let stream =
    [
      ( "stream.chunks",
        "count",
        per_pass passes (fun p ->
            match List.assoc_opt "ingest.chunk_ns" p.hists with
            | Some h -> float_of_int (Dut_obs.Histogram.count h)
            | None -> 0.) );
      ( "gc.minor_words_per_sample",
        "words",
        per_pass passes (fun p -> p.minor_words) /. samples );
    ]
  in
  let trace, self_time =
    trace_layers ctx ~name:"stream-ingest" ~untraced:passes ~traced_wall
      ~summary_bytes:(metrics_summary ()) ~extra_traces:[]
  in
  {
    tally = t;
    e2e = end_to_end ~setup_s ~rss_mb passes;
    layer = stream @ in_process_layers ctx passes @ trace;
    unreached =
      "gc.minor_words_per_trial" :: "runner.parallel_efficiency" :: service_metrics;
    detail;
    digests = [ ("stream-ingest", digest) ];
    self_time;
  }

(* The first pass's generated inputs, rendered: what the program is
   given for [seed] (reproduce's only input is the seed itself). *)
let inputs ~smoke ~seed = function
  | "reproduce" -> Printf.sprintf "run-all profile=fast seed=%d" seed
  | "query-cold" ->
      String.concat "\n"
        (Array.to_list
           (Array.map
              (fun q -> q.Gen.line)
              (Gen.cold_queries ~smoke ~seed ~pass:0 ~count:(cold_count ~smoke))))
  | "query-warm" ->
      let keys = Gen.warm_keys ~seed ~count:(warm_keys ~smoke) in
      String.concat "\n"
        (Array.to_list
           (Array.map
              (fun i -> keys.(i).Gen.line)
              (Gen.zipf_requests
                 (Gen.zipf ~seed (Array.length keys))
                 ~seed ~pass:0 ~count:(warm_count ~smoke))))
  | _ ->
      let buf = Array.make (stream_block ~smoke) 0 in
      Gen.fill_uniform (Gen.stream_state ~seed) ~n:stream_n buf;
      String.concat " " (Array.to_list (Array.map string_of_int buf))

let run ctx = function
  | "reproduce" -> reproduce ctx
  | "query-cold" -> query_cold ctx
  | "query-warm" -> query_warm ctx
  | "stream-ingest" -> stream_ingest ctx
  | w -> invalid_arg ("unknown workload " ^ w)
