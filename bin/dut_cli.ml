(* Command-line driver: list and run the reproduction experiments.

   dut list
   dut run T1-any-rule [--profile fast|full] [--seed N] [--csv] [--jobs N]
   dut run-all [--profile ...] [--jobs N] *)

open Cmdliner

let profile_conv =
  let parse s =
    match Dut_experiments.Config.profile_of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown profile %S (fast|full)" s))
  in
  let print fmt p =
    Format.pp_print_string fmt (Dut_experiments.Config.profile_to_string p)
  in
  Arg.conv (parse, print)

let profile_arg =
  Arg.(
    value
    & opt profile_conv Dut_experiments.Config.Fast
    & info [ "p"; "profile" ] ~docv:"PROFILE"
        ~doc:"Parameter profile: $(b,fast) (seconds) or $(b,full) (the sizes in EXPERIMENTS.md).")

let seed_arg =
  Arg.(
    value & opt int 2019
    & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Root random seed.")

let csv_arg =
  Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of aligned tables.")

let trials_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "t"; "trials" ] ~docv:"TRIALS"
        ~doc:"Override the profile's Monte-Carlo trials per estimate.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"JOBS"
        ~doc:
          "Domains used by the execution engine (default: $(b,DUT_JOBS), \
           else 1). Results are bit-identical for every value.")

let no_adaptive_arg =
  Arg.(
    value & flag
    & info [ "no-adaptive" ]
        ~doc:
          "Spend the full Monte-Carlo budget on every probe instead of \
           stopping once the Wilson interval is decisive. Reproduces the \
           fixed-budget runs of earlier revisions bit for bit.")

let cold_search_arg =
  Arg.(
    value & flag
    & info [ "cold-search" ]
        ~doc:
          "Disable warm-starting grid searches from the previous grid \
           point's critical q; every point cold-doubles from 1.")

let no_timings_arg =
  Arg.(
    value & flag
    & info [ "no-timings" ]
        ~doc:
          "Omit the wall-clock comment lines, making the output \
           byte-reproducible across runs and jobs counts.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a JSON Lines span trace (experiments, tables, run-all) \
           to $(docv). Strictly out-of-band: stdout is byte-identical \
           with and without this flag.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "After the run, dump the final counter/gauge table \
           (mc.trials_used, search.probes, pool.*, scratch.*) to stderr.")

let sample_interval_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "sample-interval-ms" ] ~docv:"MS"
        ~doc:
          "Sample a run timeline every $(docv) milliseconds: a background \
           domain appends counter deltas, gauge values, histogram states \
           and GC statistics to a dut-timeline/1 JSONL file (see \
           $(b,--timeline)). Strictly out-of-band, like $(b,--trace): \
           stdout is byte-identical with and without sampling.")

let timeline_path_arg =
  Arg.(
    value
    & opt string Dut_obs.Timeline.default_path
    & info [ "timeline" ] ~docv:"FILE"
        ~doc:
          (Printf.sprintf
             "Where $(b,--sample-interval-ms) writes its timeline (default \
              %s). Render it with $(b,dut obs-report --timeline)."
             Dut_obs.Timeline.default_path))

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout-s" ] ~docv:"SECONDS"
        ~doc:
          "Per-experiment watchdog: an experiment exceeding $(docv) is \
           cancelled cooperatively (at the next engine check point), \
           reported as failed in its slot, and the run continues.")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Replay experiments whose checkpoint under results/checkpoints/ \
           matches this run's profile, seed, trials and flags, written by a \
           binary built from the same sources; re-run only missing, failed \
           or stale ones.")

module Runner = Dut_experiments.Runner

(* Telemetry bracket shared by run/run-all: open the span sink before
   the run, then write results/manifest.json, optionally dump the
   counter table to stderr, and close the sink. Everything here is
   out-of-band — stdout is untouched. Returns the run's report so the
   caller can turn failures into the exit code. *)
let with_obs ~trace ~metrics ?sample_interval_ms
    ?(timeline_path = Dut_obs.Timeline.default_path) ~command ~cfg run =
  Dut_obs.Span.set_sink trace;
  Option.iter
    (fun interval_ms ->
      Dut_obs.Timeline.start ~path:timeline_path ~interval_ms ())
    sample_interval_ms;
  let finally () =
    Dut_obs.Timeline.stop ();
    Dut_obs.Span.set_sink None
  in
  Fun.protect ~finally @@ fun () ->
  let report = run () in
  let experiments =
    List.map
      (fun (o : Runner.outcome) ->
        {
          Dut_obs.Manifest.id = o.id;
          seconds = o.seconds;
          status =
            (match o.status with
            | Runner.Ok -> "ok"
            | Runner.Failed _ -> "failed"
            | Runner.Interrupted -> "interrupted");
          resumed = o.resumed;
          error =
            (match o.status with
            | Runner.Failed { exn; _ } -> Some exn
            | _ -> None);
        })
      report.Runner.experiments
  in
  Dut_obs.Manifest.write
    (Dut_obs.Manifest.make ~command
       ~profile:
         (Dut_experiments.Config.profile_to_string
            cfg.Dut_experiments.Config.profile)
       ~seed:cfg.seed ~jobs:cfg.jobs ~jobs_requested:cfg.jobs_requested
       ~adaptive:cfg.adaptive ~warm_start:cfg.warm_start
       ~wall_seconds:report.Runner.wall_seconds
       ~cpu_seconds:report.Runner.cpu_seconds ~experiments);
  if metrics then Dut_obs.Metrics.dump stderr;
  report

(* Failure isolation means the process must carry the verdict: 130 for
   an interrupted run (the shell convention for SIGINT), 1 when any
   experiment failed, 0 otherwise — with a stderr summary, so scripted
   callers see why without parsing stdout. Backtraces go there too:
   stdout's # ERROR blocks carry only the exception. *)
let exit_of_report (report : Runner.report) =
  let outcomes = report.Runner.experiments in
  let n_failed = List.length (List.filter Runner.failed outcomes) in
  let n_interrupted =
    List.length
      (List.filter (fun o -> o.Runner.status = Runner.Interrupted) outcomes)
  in
  if n_interrupted > 0 then begin
    Printf.eprintf
      "dut: interrupted — %d of %d experiments completed; finish with `dut \
       run-all --resume`\n\
       %!"
      (List.length outcomes - n_interrupted)
      (List.length outcomes);
    130
  end
  else if n_failed > 0 then begin
    Printf.eprintf "dut: %d of %d experiments failed (see # ERROR blocks)\n%!"
      n_failed (List.length outcomes);
    List.iter
      (fun (o : Runner.outcome) ->
        match o.status with
        | Runner.Failed { exn; backtrace } ->
            Printf.eprintf "dut: %s: %s\n%s%!" o.id exn backtrace
        | _ -> ())
      outcomes;
    1
  end
  else 0

let run_one ~profile ~seed ~csv ~timings ~adaptive ~warm_start ~trace ~metrics
    ?sample_interval_ms ?timeline_path ?trials ?jobs ?timeout_s id =
  match Dut_experiments.Registry.find id with
  | None ->
      Printf.eprintf "unknown experiment %S; try `dut list`\n" id;
      exit 1
  | Some exp ->
      let cfg =
        Dut_experiments.Config.make ~seed ?trials ?jobs ~adaptive ~warm_start
          profile
      in
      let report =
        with_obs ~trace ~metrics ?sample_interval_ms ?timeline_path
          ~command:("run " ^ id) ~cfg (fun () ->
            let outcome =
              Runner.run_to_channel ~csv ~timings ?timeout_s cfg exp stdout
            in
            {
              Runner.wall_seconds = outcome.Runner.seconds;
              cpu_seconds = outcome.Runner.seconds;
              experiments = [ outcome ];
            })
      in
      exit (exit_of_report report)

let list_cmd =
  let doc = "List the available experiments." in
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-20s %s\n    %s\n" e.Dut_experiments.Exp.id e.title
          e.statement)
      Dut_experiments.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let run_cmd =
  let doc = "Run one experiment by id." in
  let id_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT-ID")
  in
  let run profile seed csv trials jobs no_timings no_adaptive cold_search
      trace metrics sample_interval_ms timeline_path timeout_s id =
    run_one ~profile ~seed ~csv ~timings:(not no_timings)
      ~adaptive:(not no_adaptive) ~warm_start:(not cold_search) ~trace
      ~metrics ?sample_interval_ms ~timeline_path ?trials ?jobs ?timeout_s id
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ profile_arg $ seed_arg $ csv_arg $ trials_arg $ jobs_arg
      $ no_timings_arg $ no_adaptive_arg $ cold_search_arg $ trace_arg
      $ metrics_arg $ sample_interval_arg $ timeline_path_arg $ timeout_arg
      $ id_arg)

let run_all_cmd =
  let doc =
    "Run every experiment in the registry (up to --jobs concurrently). \
     Failing experiments render an # ERROR block in their slot and make \
     the exit code non-zero; the others complete, print and checkpoint \
     normally. SIGINT/SIGTERM stops gracefully (exit 130, partial \
     manifest, completed work checkpointed); $(b,--resume) finishes such \
     a run."
  in
  let run profile seed csv trials jobs no_timings no_adaptive cold_search
      trace metrics sample_interval_ms timeline_path timeout_s resume =
    let cfg =
      Dut_experiments.Config.make ~seed ?trials ?jobs
        ~adaptive:(not no_adaptive) ~warm_start:(not cold_search) profile
    in
    let report =
      Runner.with_sigint_guard (fun () ->
          with_obs ~trace ~metrics ?sample_interval_ms ~timeline_path
            ~command:"run-all" ~cfg (fun () ->
              Runner.run_all_to_channel ~csv ~timings:(not no_timings)
                ~checkpoint_dir:(Filename.concat "results" "checkpoints")
                ~resume
                ?timeout_s cfg stdout))
    in
    exit (exit_of_report report)
  in
  Cmd.v (Cmd.info "run-all" ~doc)
    Term.(
      const run $ profile_arg $ seed_arg $ csv_arg $ trials_arg $ jobs_arg
      $ no_timings_arg $ no_adaptive_arg $ cold_search_arg $ trace_arg
      $ metrics_arg $ sample_interval_arg $ timeline_path_arg $ timeout_arg
      $ resume_arg)

let bounds_cmd =
  let doc = "Print every bound of the paper for given parameters." in
  let n_arg = Arg.(value & opt int 4096 & info [ "n" ] ~docv:"N" ~doc:"Universe size.") in
  let k_arg = Arg.(value & opt int 64 & info [ "k" ] ~docv:"K" ~doc:"Number of players.") in
  let eps_arg =
    Arg.(value & opt float 0.25 & info [ "e"; "eps" ] ~docv:"EPS" ~doc:"Proximity parameter.")
  in
  let run n k eps =
    let line name v note = Printf.printf "%-34s %12.1f   %s\n" name v note in
    Printf.printf "bounds for n=%d, k=%d, eps=%.3f (constants set to 1)\n\n" n k eps;
    line "centralized [16]" (Dut_core.Bounds.centralized ~n ~eps) "samples, one tester";
    line "Thm 1.1 lower (any rule)"
      (Dut_core.Bounds.thm11_lower ~n ~k ~eps)
      (if Dut_core.Bounds.thm11_applies ~n ~k ~eps then "per player"
       else "per player (outside k <= n/eps^2!)");
    line "FMO threshold upper"
      (Dut_core.Bounds.fmo_threshold_upper ~n ~k ~eps)
      "per player: matches Thm 1.1";
    line "Thm 1.2 lower (AND rule)"
      (Dut_core.Bounds.thm12_and_lower ~n ~k ~eps)
      "per player";
    line "FMO AND upper" (Dut_core.Bounds.fmo_and_upper ~n ~k ~eps) "per player";
    List.iter
      (fun t ->
        line
          (Printf.sprintf "Thm 1.3 lower (T=%d)" t)
          (Dut_core.Bounds.thm13_threshold_lower ~n ~k ~eps ~t)
          "per player")
      [ 1; 4; 16 ];
    List.iter
      (fun r ->
        line
          (Printf.sprintf "Thm 6.4 lower (r=%d bits)" r)
          (Dut_core.Bounds.thm64_rbit_lower ~n ~k ~eps ~r)
          "per player")
      [ 1; 2; 4 ];
    List.iter
      (fun q ->
        line
          (Printf.sprintf "Thm 1.4 learning nodes (q=%d)" q)
          (Dut_core.Bounds.thm14_learning_nodes ~n ~q)
          "players")
      [ 1; 4; 16 ];
    line "ACT single-sample nodes (2 bits)"
      (Dut_core.Bounds.act_single_sample_nodes ~n ~eps ~bits:2)
      "players at q=1";
    line "async time (k unit rates)"
      (Dut_core.Bounds.async_time_lower ~n ~eps ~rates:(Array.make k 1.))
      "time units"
  in
  Cmd.v (Cmd.info "bounds" ~doc) Term.(const run $ n_arg $ k_arg $ eps_arg)

let verify_cmd =
  let doc =
    "Check the paper's exact claims (F1/F2/F3/F5, T8, T11) and exit non-zero \
     on any violation."
  in
  let run profile seed =
    let cfg = Dut_experiments.Config.make ~seed profile in
    let verdicts = Dut_experiments.Verifier.verify_all cfg in
    List.iter
      (fun v ->
        if v.Dut_experiments.Verifier.failures = [] then
          Printf.printf "PASS %-18s (%d checks)\n" v.experiment v.checks
        else begin
          Printf.printf "FAIL %-18s (%d checks, %d failures)\n" v.experiment
            v.checks
            (List.length v.failures);
          List.iter (fun f -> Printf.printf "     %s\n" f) v.failures
        end)
      verdicts;
    if Dut_experiments.Verifier.all_passed verdicts then begin
      print_endline "all exact claims verified";
      exit 0
    end
    else exit 1
  in
  Cmd.v (Cmd.info "verify" ~doc) Term.(const run $ profile_arg $ seed_arg)

(* -- serve / query: the resident query layer ---------------------------- *)

let socket_arg =
  Arg.(
    value
    & opt string Dut_service.Server.default_socket
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket the server listens on / the client dials.")

let serve_cmd =
  let doc =
    "Run the resident query server: a long-lived process answering \
     $(b,dut query) requests (theory bounds, tester power estimates, \
     critical-q searches) over a Unix-domain socket. Concurrent requests \
     are coalesced into batches on the execution engine; ok answers are \
     memoized (per code version) so repeated queries replay \
     byte-identically without recomputation. SIGINT/SIGTERM drains \
     in-flight work, writes the session summary and exits 0."
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt string Dut_service.Memo.default_dir
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"Directory of the persistent memo cache.")
  in
  let no_cache_arg =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:"Disable memoization entirely (every query recomputes).")
  in
  let mem_entries_arg =
    Arg.(
      value & opt int 512
      & info [ "mem-entries" ] ~docv:"N"
          ~doc:"Capacity of the in-memory LRU cache front.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-s" ] ~docv:"SECONDS"
          ~doc:
            "Per-request cooperative deadline: a query exceeding $(docv) \
             is cancelled at the next engine check point and answered \
             with an error response; sibling requests are unaffected.")
  in
  let max_pending_arg =
    Arg.(
      value & opt int 1024
      & info [ "max-pending" ] ~docv:"N"
          ~doc:
            "Backpressure cap: requests beyond $(docv) in one batch cycle \
             are answered immediately with an error instead of queueing.")
  in
  let summary_arg =
    Arg.(
      value
      & opt string Dut_service.Server.default_summary_path
      & info [ "summary" ] ~docv:"FILE"
          ~doc:
            "Session summary (schema dut-service/4), rewritten atomically \
             after every batch; readable live with $(b,dut obs-report \
             --manifest).")
  in
  let shards_arg =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Shard the service across $(docv) worker processes: a router \
             on the public socket consistent-hashes each query's \
             canonical bytes to a worker (each a full server on \
             $(i,SOCKET).shardI, all sharing the on-disk memo store) and \
             splices responses back byte-identically. 1 (the default) \
             runs the plain single-process server.")
  in
  let run socket jobs cache_dir no_cache mem_entries deadline_s max_pending
      summary shards trace metrics =
    if shards < 1 then invalid_arg "serve: shards must be positive";
    let jobs =
      Dut_engine.Pool.effective_jobs
        (match jobs with
        | Some j when j >= 1 -> j
        | Some _ -> invalid_arg "serve: jobs must be positive"
        | None -> Dut_engine.Parallel.env_jobs ())
    in
    let cache =
      if no_cache then None
      else
        Some
          (Dut_service.Memo.create ~capacity:mem_entries ~dir:(Some cache_dir)
             ())
    in
    Dut_obs.Span.set_sink trace;
    Fun.protect
      ~finally:(fun () -> Dut_obs.Span.set_sink None)
      (fun () ->
        Dut_service.Shard.serve_fleet ~shards
          {
            Dut_service.Server.socket;
            jobs;
            cache;
            deadline_s;
            max_pending;
            summary_path = summary;
          });
    if metrics then Dut_obs.Metrics.dump stderr;
    exit 0
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket_arg $ jobs_arg $ cache_dir_arg $ no_cache_arg
      $ mem_entries_arg $ deadline_arg $ max_pending_arg $ summary_arg
      $ shards_arg $ trace_arg $ metrics_arg)

let query_cmd =
  let doc =
    "Send queries to a running $(b,dut serve) and print one response \
     line per query, in request order. Queries are JSON objects (see \
     doc/service.md): a single query as the positional argument, a JSONL \
     batch via $(b,--batch), or JSONL on stdin. Exits 0 when every \
     response is ok, 1 when any response is an error, 2 when the server \
     is unreachable."
  in
  let query_pos_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"QUERY" ~doc:"One query as a JSON object literal.")
  in
  let batch_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "batch" ] ~docv:"FILE"
          ~doc:"Read queries from $(docv), one JSON object per line.")
  in
  let read_lines ic =
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file -> List.rev acc
    in
    go []
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout-s" ] ~docv:"SECONDS"
          ~doc:
            "Give up after $(docv) without a full set of responses; the \
             deadline covers sending the batch as well as waiting for \
             answers. Unanswered ids are filled with an error payload (one \
             output line per input line still holds) and the exit code is \
             2. Without it the exchange is unbounded.")
  in
  let run socket timeout_s query batch =
    (match timeout_s with
    | Some t when t <= 0. -> invalid_arg "query: timeout-s must be positive"
    | _ -> ());
    let lines =
      match (query, batch) with
      | Some q, None -> [ q ]
      | None, Some file ->
          let ic = open_in file in
          Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
              read_lines ic)
      | None, None -> read_lines stdin
      | Some _, Some _ ->
          Printf.eprintf "dut query: pass either QUERY or --batch, not both\n";
          exit Cmd.Exit.cli_error
    in
    exit (Dut_service.Client.run ?timeout_s ~socket ~out:stdout lines)
  in
  Cmd.v (Cmd.info "query" ~doc)
    Term.(const run $ socket_arg $ timeout_arg $ query_pos_arg $ batch_arg)

(* -- stream: run the anytime referee over samples from stdin/file ------- *)

let stream_cmd =
  let doc =
    "Ingest a sample stream (whitespace-separated integers from FILE or \
     stdin) through a bounded-memory sketch and print anytime-valid \
     checkpoint verdicts plus the final batch-rule verdict. Output is \
     byte-identical for every $(b,--jobs) value: chunk boundaries, sketch \
     contents and thresholds depend only on the stream, $(b,--chunk) and \
     $(b,--seed)."
  in
  let file_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Sample file (default: read stdin).")
  in
  let n_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "n" ] ~docv:"N" ~doc:"Universe size: samples lie in 0..N-1.")
  in
  let eps_arg =
    Arg.(
      value & opt float 0.25
      & info [ "e"; "eps" ] ~docv:"EPS" ~doc:"Proximity parameter.")
  in
  let sketch_conv =
    let parse s =
      match Dut_stream.Sketch.kind_of_string s with
      | Some k -> Ok k
      | None -> Error (`Msg (Printf.sprintf "unknown sketch %S (hist|ams)" s))
    in
    let print fmt k =
      Format.pp_print_string fmt (Dut_stream.Sketch.kind_to_string k)
    in
    Arg.conv (parse, print)
  in
  let sketch_arg =
    Arg.(
      value
      & opt sketch_conv Dut_stream.Sketch.Hist
      & info [ "sketch" ] ~docv:"KIND"
          ~doc:
            "Sketch kind: $(b,hist) (bounded histogram) or $(b,ams) \
             (±1 second-moment sketch).")
  in
  let budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"WORDS"
          ~doc:
            "Per-sketch memory budget in words (default: the exact-histogram \
             budget N + header).")
  in
  let chunk_arg =
    Arg.(
      value & opt int 256
      & info [ "chunk" ] ~docv:"SAMPLES"
          ~doc:
            "Samples per chunk — the checkpoint granularity and the unit of \
             deterministic parallel ingestion.")
  in
  let window_conv =
    let parse s =
      if s = "growing" then Ok Dut_stream.Anytime.Growing
      else
        match int_of_string_opt s with
        | Some w when w >= 1 -> Ok (Dut_stream.Anytime.Sliding w)
        | _ ->
            Error
              (`Msg
                 (Printf.sprintf
                    "bad window %S (growing, or a positive chunk count)" s))
    in
    let print fmt w =
      Format.pp_print_string fmt (Dut_stream.Anytime.window_to_string w)
    in
    Arg.conv (parse, print)
  in
  let window_arg =
    Arg.(
      value
      & opt window_conv Dut_stream.Anytime.Growing
      & info [ "window" ] ~docv:"WINDOW"
          ~doc:
            "Checkpoint window: $(b,growing) (judge the whole prefix) or an \
             integer $(i,w) (judge the last $(i,w) chunks).")
  in
  let alpha_arg =
    Arg.(
      value & opt float 0.05
      & info [ "alpha" ] ~docv:"ALPHA"
          ~doc:"Total anytime false-rejection budget (eps-spending).")
  in
  let every_arg =
    Arg.(
      value & opt int 1
      & info [ "every" ] ~docv:"CHUNKS" ~doc:"Chunks between checkpoints.")
  in
  let run file n eps kind budget chunk window alpha every seed jobs metrics =
    let budget =
      match budget with
      | Some b -> b
      | None -> Dut_stream.Sketch.exact_budget ~n
    in
    let cfg =
      Dut_stream.Sketch.config ~kind ~n ~budget_words:budget ~seed
    in
    let referee = Dut_stream.Anytime.create ~window ~alpha ~every ~eps cfg in
    let fl = Printf.sprintf "%.6g" in
    Printf.printf
      "# dut stream: n=%d eps=%s sketch=%s budget=%d buckets=%d exact=%s \
       chunk=%d window=%s alpha=%s every=%d seed=%d\n"
      n (fl eps)
      (Dut_stream.Sketch.kind_to_string kind)
      budget
      (Dut_stream.Sketch.buckets cfg)
      (if Dut_stream.Sketch.is_exact cfg then "yes" else "no")
      chunk
      (Dut_stream.Anytime.window_to_string window)
      (fl alpha) every seed;
    let on_chunk sk =
      match Dut_stream.Anytime.observe referee sk with
      | None -> ()
      | Some v ->
          Printf.printf
            "checkpoint %d samples=%d window=%d stat=%s threshold=%s \
             alpha_spent=%s verdict=%s\n"
            v.Dut_stream.Anytime.index v.samples_seen v.window_samples
            (fl v.stat) (fl v.threshold) (fl v.alpha_spent)
            (if v.reject then "reject" else "accept")
    in
    let ingest = Dut_stream.Ingest.create ?jobs ~chunk ~on_chunk cfg in
    let feed_channel ic =
      let sc = Scanf.Scanning.from_channel ic in
      try
        while true do
          let x = Scanf.bscanf sc " %d" Fun.id in
          Dut_stream.Ingest.feed ingest x
        done
      with
      | Scanf.Scan_failure msg ->
          Printf.eprintf "dut stream: bad sample: %s\n" msg;
          exit 1
      | End_of_file -> ()
    in
    (match file with
    | None -> feed_channel stdin
    | Some path ->
        let ic =
          try open_in path
          with Sys_error msg ->
            Printf.eprintf "dut stream: %s\n" msg;
            exit Cmd.Exit.cli_error
        in
        Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
            feed_channel ic));
    Dut_stream.Ingest.flush ingest;
    Printf.printf "# ingested %d samples in %d chunks\n"
      (Dut_stream.Ingest.samples_fed ingest)
      (Dut_stream.Ingest.chunks_emitted ingest);
    (match Dut_stream.Anytime.rejected referee with
    | Some v ->
        Printf.printf "# anytime stop: rejected at checkpoint %d (%d samples)\n"
          v.Dut_stream.Anytime.index v.samples_seen
    | None -> ());
    let v = Dut_stream.Anytime.final referee in
    Printf.printf "final samples=%d stat=%s cutoff=%s verdict=%s\n"
      v.Dut_stream.Anytime.samples_seen (fl v.stat) (fl v.threshold)
      (if v.reject then "reject" else "accept");
    if metrics then Dut_obs.Metrics.dump stderr;
    exit 0
  in
  Cmd.v (Cmd.info "stream" ~doc)
    Term.(
      const run $ file_arg $ n_arg $ eps_arg $ sketch_arg $ budget_arg
      $ chunk_arg $ window_arg $ alpha_arg $ every_arg $ seed_arg $ jobs_arg
      $ metrics_arg)

(* -- obs-report: pretty-print a manifest and/or trace ------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let obs_fail path msg =
  Printf.eprintf "%s: %s\n" path msg;
  exit 1

(* Nanosecond quantities span six orders of magnitude across the
   histograms (a memo front hit vs a full experiment); pick the unit
   per value instead of forcing one column-wide scale. *)
let ns_str ns =
  if Float.abs ns < 1e3 then Printf.sprintf "%.0fns" ns
  else if Float.abs ns < 1e6 then Printf.sprintf "%.1fus" (ns /. 1e3)
  else if Float.abs ns < 1e9 then Printf.sprintf "%.1fms" (ns /. 1e6)
  else Printf.sprintf "%.2fs" (ns /. 1e9)

let hist_cell ~ns j name =
  match Dut_obs.Json.field_opt j name with
  | Some (Dut_obs.Json.Num f) -> if ns then ns_str f else Printf.sprintf "%.0f" f
  | _ -> "-"

let ends_with ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

let report_histograms m =
  let open Dut_obs in
  match Json.field_opt m "histograms" with
  | Some (Json.Obj ((_ :: _) as kvs)) ->
      print_newline ();
      print_endline "histograms";
      let width =
        List.fold_left (fun w (k, _) -> max w (String.length k)) 0 kvs
      in
      Printf.printf "  %-*s %8s %9s %9s %9s %9s %9s\n" width "name" "count"
        "p50" "p90" "p95" "p99" "max";
      List.iter
        (fun (k, v) ->
          let ns = ends_with ~suffix:"_ns" k in
          Printf.printf "  %-*s %8s %9s %9s %9s %9s %9s\n" width k
            (hist_cell ~ns:false v "count")
            (hist_cell ~ns v "p50") (hist_cell ~ns v "p90")
            (hist_cell ~ns v "p95") (hist_cell ~ns v "p99")
            (hist_cell ~ns v "max"))
        kvs
  | _ -> ()

(* Shared by run and service manifests: render the counter snapshot and
   flag the latent-failure tallies a green run can still accumulate. *)
let report_counters m =
  let open Dut_obs in
  match Json.field m "counters" with
  | Json.Obj kvs ->
      print_newline ();
      print_endline "counters";
      let width =
        List.fold_left (fun w (k, _) -> max w (String.length k)) 0 kvs
      in
      List.iter
        (fun (k, v) ->
          match v with
          | Json.Num f -> Printf.printf "  %-*s %.0f\n" width k f
          | _ -> raise (Json.Malformed ("counter " ^ k ^ ": expected number")))
        kvs;
      let tally name =
        match List.assoc_opt name kvs with
        | Some (Json.Num f) when f > 0. -> Some f
        | _ -> None
      in
      Option.iter
        (fun f ->
          Printf.printf
            "  WARNING: %.0f store write(s) failed — served answers or \
             completed experiments were not persisted and will recompute\n"
            f)
        (tally "cache.write_failures");
      report_histograms m
  | _ -> raise (Dut_obs.Json.Malformed "counters: expected object")

(* The code identity a manifest or summary was written under; files of
   older schemas (which carried a git label instead) render as "?". *)
let code_of m =
  match Dut_obs.Json.field_opt m "code" with
  | Some (Dut_obs.Json.Str c) -> c
  | _ -> "?"

(* dut-service/1 to /4: the session summary `dut serve` rewrites after
   every batch, so this renders live state while the server is running.
   The /2 additions (qps, latency percentiles, per-batch stats) degrade
   gracefully: absent fields simply print nothing. *)
let report_service path m =
  let open Dut_obs in
  Printf.printf "service %s (%s, code %s)\n" path (Json.want_str m "schema")
    (code_of m);
  Printf.printf "  status      %s\n" (Json.want_str m "status");
  Printf.printf "  socket      %s\n" (Json.want_str m "socket");
  Printf.printf "  jobs        %.0f   uptime %.1fs\n" (Json.want_num m "jobs")
    (Json.want_num m "uptime_seconds");
  let n name = Json.want_num m name in
  Printf.printf "  requests    %.0f in %.0f batches (%.0f errors, %.0f \
                 rejected)\n"
    (n "requests") (n "batches") (n "errors") (n "rejected");
  let hits = n "cache_hits" and misses = n "cache_misses" in
  let rate =
    if hits +. misses > 0. then
      Printf.sprintf " (%.0f%% hit rate)" (100. *. hits /. (hits +. misses))
    else ""
  in
  Printf.printf "  cache       %.0f hits, %.0f misses%s\n" hits misses rate;
  (match Json.field_opt m "qps" with
  | Some (Json.Num q) -> Printf.printf "  qps         %.2f\n" q
  | _ -> ());
  (match Json.field_opt m "latency_ns" with
  | Some lat ->
      Printf.printf "  latency     p50 %s  p90 %s  p95 %s  p99 %s  max %s\n"
        (hist_cell ~ns:true lat "p50") (hist_cell ~ns:true lat "p90")
        (hist_cell ~ns:true lat "p95") (hist_cell ~ns:true lat "p99")
        (hist_cell ~ns:true lat "max")
  | None -> ());
  (match Json.field_opt m "last_batch" with
  | Some (Json.Obj _ as b) ->
      let ratio =
        match Json.field_opt b "cache_hit_ratio" with
        | Some (Json.Num r) -> Printf.sprintf ", %.0f%% cached" (100. *. r)
        | _ -> ""
      in
      let qps =
        match Json.field_opt b "qps" with
        | Some (Json.Num q) -> Printf.sprintf " (%.1f qps)" q
        | _ -> ""
      in
      Printf.printf "  last batch  %.0f requests in %.3fs%s%s"
        (Json.want_num b "requests") (Json.want_num b "seconds") qps ratio;
      (match Json.field_opt b "latency_ns" with
      | Some lat ->
          Printf.printf ", p95 %s\n" (hist_cell ~ns:true lat "p95")
      | None -> print_newline ())
  | _ -> ());
  report_counters m

(* dut-service-fleet/1 and /2: the router's merged view of a sharded fleet —
   aggregate first (counters summed, latency merged exactly from the
   per-shard bucket arrays), then each worker's own dut-service
   summary, re-read from disk so a dead shard degrades to a one-line
   note instead of a render failure. *)
let report_fleet path m =
  let open Dut_obs in
  Printf.printf "fleet %s (%s, code %s)\n" path (Json.want_str m "schema")
    (code_of m);
  Printf.printf "  status      %s\n" (Json.want_str m "status");
  Printf.printf "  socket      %s\n" (Json.want_str m "socket");
  Printf.printf "  shards      %.0f   jobs %.0f per shard   uptime %.1fs\n"
    (Json.want_num m "shards") (Json.want_num m "jobs")
    (Json.want_num m "uptime_seconds");
  (match Json.field_opt m "router" with
  | Some r ->
      Printf.printf
        "  router      %.0f routed, %.0f local errors, %.0f dead rejects, \
         %.0f stray (%.0f/%.0f shards live)\n"
        (Json.want_num r "routed")
        (Json.want_num r "local_errors")
        (Json.want_num r "dead_rejects")
        (Json.want_num r "stray_responses")
        (Json.want_num r "shards_live")
        (Json.want_num m "shards")
  | None -> ());
  (match Json.field_opt m "aggregate" with
  | Some a ->
      Printf.printf
        "  aggregate   %.0f requests in %.0f batches (%.0f errors, %.0f \
         rejected)\n"
        (Json.want_num a "requests") (Json.want_num a "batches")
        (Json.want_num a "errors") (Json.want_num a "rejected");
      let hits = Json.want_num a "cache_hits"
      and misses = Json.want_num a "cache_misses" in
      let rate =
        if hits +. misses > 0. then
          Printf.sprintf " (%.0f%% hit rate)" (100. *. hits /. (hits +. misses))
        else ""
      in
      Printf.printf "  cache       %.0f hits, %.0f misses%s\n" hits misses rate;
      (match Json.field_opt a "qps" with
      | Some (Json.Num q) -> Printf.printf "  qps         %.2f\n" q
      | _ -> ());
      (match Json.field_opt a "latency_ns" with
      | Some lat ->
          Printf.printf
            "  latency     p50 %s  p90 %s  p95 %s  p99 %s  max %s\n"
            (hist_cell ~ns:true lat "p50") (hist_cell ~ns:true lat "p90")
            (hist_cell ~ns:true lat "p95") (hist_cell ~ns:true lat "p99")
            (hist_cell ~ns:true lat "max")
      | None -> ())
  | None -> ());
  match Json.field_opt m "workers" with
  | Some (Json.Arr workers) ->
      List.iter
        (fun w ->
          let shard = Json.want_num w "shard" in
          let summary = Json.want_str w "summary" in
          (* The recorded path is relative to the server's cwd; when
             the report runs elsewhere, the worker summaries still sit
             next to the fleet manifest by construction. *)
          let summary =
            if Sys.file_exists summary then summary
            else Filename.concat (Filename.dirname path)
                (Filename.basename summary)
          in
          print_newline ();
          if Sys.file_exists summary then
            match Json.parse (read_file summary) with
            | exception (Json.Malformed _ | Sys_error _) ->
                Printf.printf "shard %.0f: unreadable summary at %s\n" shard
                  summary
            | wm -> report_service summary wm
          else
            Printf.printf "shard %.0f: no summary at %s (never served?)\n"
              shard summary)
        workers
  | _ -> ()

let report_manifest path =
  if not (Sys.file_exists path) then
    obs_fail path "no manifest (run `dut run-all` first, or pass --manifest)";
  let open Dut_obs in
  let schema_prefix m prefix =
    try
      let s = Json.want_str m "schema" in
      String.length s >= String.length prefix
      && String.sub s 0 (String.length prefix) = prefix
    with _ -> false
  in
  match Json.parse (read_file path) with
  | m when schema_prefix m "dut-service-fleet/" -> report_fleet path m
  | m when schema_prefix m "dut-service/" -> report_service path m
  | m ->
      let yn b = if b then "yes" else "no" in
      Printf.printf "manifest %s (%s, code %s)\n" path
        (Json.want_str m "schema") (code_of m);
      Printf.printf "  command     %s\n" (Json.want_str m "command");
      (* status and jobs_requested arrived with dut-manifest/2; render
         a /1 manifest without them rather than failing on it. *)
      (match Json.field_opt m "status" with
      | Some (Json.Str s) -> Printf.printf "  status      %s\n" s
      | _ -> ());
      let requested =
        match Json.field_opt m "jobs_requested" with
        | Some (Json.Num r) -> Printf.sprintf " (requested %.0f, clamped)" r
        | _ -> ""
      in
      Printf.printf "  profile     %-6s seed %.0f   jobs %.0f%s\n"
        (Json.want_str m "profile") (Json.want_num m "seed")
        (Json.want_num m "jobs") requested;
      Printf.printf "  adaptive    %-6s warm-start %s\n"
        (yn (Json.want_bool m "adaptive"))
        (yn (Json.want_bool m "warm_start"));
      Printf.printf "  wall        %.1fs   summed-cpu %.1fs\n"
        (Json.want_num m "wall_seconds")
        (Json.want_num m "cpu_seconds");
      (match Json.field m "experiments" with
      | Json.Arr exps ->
          let entry e =
            let status =
              match Json.field_opt e "status" with
              | Some (Json.Str s) -> s
              | _ -> "ok"
            in
            let resumed =
              match Json.field_opt e "resumed" with
              | Some (Json.Bool b) -> b
              | _ -> false
            in
            (Json.want_str e "id", Json.want_num e "seconds", status, resumed)
          in
          let timed = List.map entry exps in
          let count p = List.length (List.filter p timed) in
          let n_failed = count (fun (_, _, s, _) -> s = "failed") in
          let n_interrupted = count (fun (_, _, s, _) -> s = "interrupted") in
          let n_resumed = count (fun (_, _, _, r) -> r) in
          Printf.printf "\nexperiments (%d" (List.length timed);
          if n_resumed > 0 then Printf.printf ", %d resumed" n_resumed;
          if n_failed > 0 then Printf.printf ", %d FAILED" n_failed;
          if n_interrupted > 0 then
            Printf.printf ", %d interrupted" n_interrupted;
          print_endline ", slowest first)";
          let annotate status resumed =
            (if resumed then "  (resumed)" else "")
            ^ match status with "ok" -> "" | s -> "  " ^ String.uppercase_ascii s
          in
          List.iter
            (fun (id, _, status, resumed) ->
              if status = "failed" then
                match
                  List.find_opt
                    (fun e -> Json.want_str e "id" = id)
                    exps
                with
                | Some e -> (
                    match Json.field_opt e "error" with
                    | Some (Json.Str msg) ->
                        Printf.printf "  %-22s FAILED: %s%s\n" id msg
                          (if resumed then " (resumed)" else "")
                    | _ -> ())
                | None -> ())
            timed;
          let slowest =
            List.sort (fun (_, a, _, _) (_, b, _, _) -> Float.compare b a) timed
          in
          List.iteri
            (fun i (id, s, status, resumed) ->
              if i < 10 then
                Printf.printf "  %-22s %7.1fs%s\n" id s
                  (annotate status resumed))
            slowest;
          if List.length slowest > 10 then
            Printf.printf "  ... %d more\n" (List.length slowest - 10)
      | _ -> raise (Json.Malformed "experiments: expected array"));
      report_counters m

(* Load a trace through Profile.read_file, turning an unreadable or
   malformed-complete-line file into exit 1. Truncation handling is the
   caller's business: the linter treats it as crash evidence, the
   profiler works with whatever complete spans survive. *)
let load_trace path =
  if not (Sys.file_exists path) then obs_fail path "no such trace file";
  match Dut_obs.Profile.read_file path with
  | Error msg -> obs_fail path msg
  | Ok r -> r

let trace_warnings path (r : Dut_obs.Profile.read_result) =
  if r.spans = [] then
    Printf.printf
      "  WARNING: empty trace — the traced run emitted no spans (nothing \
       ran, or the process died before the first span closed)\n";
  if r.truncated then
    Printf.printf
      "  WARNING: trailing partial line — the traced process crashed \
       mid-write; the spans above are the complete prefix (%s)\n"
      path

let report_trace path =
  let r = load_trace path in
  let aggs = Dut_obs.Profile.aggregate r.spans in
  Printf.printf "trace %s: %d spans, %d names\n" path (List.length r.spans)
    (List.length aggs);
  if aggs <> [] then begin
    Printf.printf "  %-18s %7s %10s %10s %10s\n" "name" "count" "total" "self"
      "max";
    let s ns = Printf.sprintf "%9.2fs" (float_of_int ns /. 1e9) in
    List.iter
      (fun (a : Dut_obs.Profile.agg) ->
        Printf.printf "  %-18s %7d %10s %10s %10s\n" a.agg_name a.count
          (s a.total_ns) (s a.self_ns) (s a.max_ns))
      aggs
  end;
  trace_warnings path r;
  if r.truncated then exit 1

(* --profile: where does the wall time go? Per-name self time against
   the manifest's summed-CPU accounting. The run-all umbrella span is
   excluded from the reconciliation sum: under --jobs its children run
   on other domains as roots (their time is already counted once), and
   its own self time is scheduling wait, which cpu_seconds never
   includes. *)
let report_profile ~trace_path ~manifest_path ~top =
  let r = load_trace trace_path in
  let aggs = Dut_obs.Profile.aggregate r.spans in
  Printf.printf "profile %s: %d spans, %d names\n" trace_path
    (List.length r.spans) (List.length aggs);
  trace_warnings trace_path r;
  if aggs <> [] then begin
    let total_self = Dut_obs.Profile.total_self_ns r.spans in
    Printf.printf "  %-18s %7s %10s %10s %7s %10s\n" "name" "count" "total"
      "self" "self%" "max";
    let s ns = Printf.sprintf "%9.2fs" (float_of_int ns /. 1e9) in
    List.iteri
      (fun i (a : Dut_obs.Profile.agg) ->
        if i < top then
          Printf.printf "  %-18s %7d %10s %10s %6.1f%% %10s\n" a.agg_name
            a.count (s a.total_ns) (s a.self_ns)
            (if total_self > 0 then
               100. *. float_of_int a.self_ns /. float_of_int total_self
             else 0.)
            (s a.max_ns))
      aggs;
    if List.length aggs > top then
      Printf.printf "  ... %d more names (raise --top)\n"
        (List.length aggs - top);
    let wall = float_of_int (Dut_obs.Profile.wall_ns r.spans) /. 1e9 in
    Printf.printf "wall (trace extent) %.2fs; summed self %.2fs\n" wall
      (float_of_int total_self /. 1e9);
    let self_excl =
      float_of_int
        (Dut_obs.Profile.total_self_ns ~except:[ "run-all" ] r.spans)
      /. 1e9
    in
    match
      if Sys.file_exists manifest_path then
        match Dut_obs.Json.parse (read_file manifest_path) with
        | exception _ -> None
        | m -> (
            match Dut_obs.Json.field_opt m "cpu_seconds" with
            | Some (Dut_obs.Json.Num cpu) -> Some cpu
            | _ -> None)
      else None
    with
    | Some cpu when cpu > 0. ->
        let delta = 100. *. Float.abs (self_excl -. cpu) /. cpu in
        Printf.printf
          "reconcile: summed self excl run-all %.2fs vs manifest summed-cpu \
           %.2fs (delta %.2f%%)\n"
          self_excl cpu delta
    | _ ->
        Printf.printf
          "reconcile: no readable cpu_seconds in %s — skipped\n" manifest_path
  end

(* --flame: folded stacks on stdout, one "root;child;leaf self_ns" line
   per distinct stack — pipe into any flamegraph renderer. *)
let report_flame trace_path =
  let r = load_trace trace_path in
  List.iter
    (fun (stack, self_ns) -> Printf.printf "%s %d\n" stack self_ns)
    (Dut_obs.Profile.folded r.spans)

(* -- Timeline rendering -------------------------------------------------- *)

let report_timeline path =
  let open Dut_obs in
  if not (Sys.file_exists path) then
    obs_fail path "no such timeline (run with --sample-interval-ms first)";
  let lines =
    String.split_on_char '\n' (read_file path)
    |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | [] -> obs_fail path "empty timeline file"
  | header :: samples ->
      let h = Json.parse header in
      (match Json.field_opt h "schema" with
      | Some (Json.Str "dut-timeline/1") -> ()
      | _ -> obs_fail path "not a dut-timeline/1 file");
      let started_ns = Json.want_num h "started_ns" in
      let interval_ms = Json.want_num h "interval_ms" in
      let parsed =
        List.mapi
          (fun i line ->
            match Json.parse line with
            | exception Json.Malformed msg ->
                obs_fail path (Printf.sprintf "sample %d: %s" (i + 1) msg)
            | j -> j)
          samples
      in
      let span_s =
        match List.rev parsed with
        | last :: _ -> (Json.want_num last "t_ns" -. started_ns) /. 1e9
        | [] -> 0.
      in
      Printf.printf "timeline %s (dut-timeline/1, every %.0fms): %d \
                     samples over %.1fs\n"
        path interval_ms (List.length parsed) span_s;
      if parsed <> [] then begin
        Printf.printf "  %8s %10s %8s %9s %10s %10s %10s\n" "t(s)"
          "dtrials" "dtasks" "idle(ms)" "minor(Mw)" "major(Mw)"
          "task p95";
        List.iter
          (fun j ->
            let t = (Json.want_num j "t_ns" -. started_ns) /. 1e9 in
            let counter name =
              match Json.field_opt j "counters" with
              | Some c -> (
                  match Json.field_opt c name with
                  | Some (Json.Num f) -> f
                  | _ -> 0.)
              | None -> 0.
            in
            let gc name =
              match Json.field_opt j "gc" with
              | Some g -> (
                  match Json.field_opt g name with
                  | Some (Json.Num f) -> f
                  | _ -> 0.)
              | None -> 0.
            in
            let task_p95 =
              match Json.field_opt j "histograms" with
              | Some hs -> (
                  match Json.field_opt hs "pool.task_ns" with
                  | Some hp -> hist_cell ~ns:true hp "p95"
                  | None -> "-")
              | None -> "-"
            in
            Printf.printf "  %8.2f %10.0f %8.0f %9.1f %10.2f %10.2f %10s\n"
              t
              (counter "mc.trials_used")
              (counter "pool.tasks_claimed")
              (counter "pool.idle_ns" /. 1e6)
              (gc "minor_words" /. 1e6)
              (gc "major_words" /. 1e6)
              task_p95)
          parsed
      end

(* Counters classified jobs-invariant in doc/observability.md: the
   engine's determinism contract makes their totals bit-equal across
   jobs counts, so two manifests of the same run configuration must
   agree on them — a mismatch is evidence the contract broke. *)
let jobs_invariant_counter name =
  let has_prefix p =
    String.length name >= String.length p
    && String.sub name 0 (String.length p) = p
  in
  List.exists has_prefix [ "mc."; "search."; "stream." ]

let counters_of path =
  let open Dut_obs in
  if not (Sys.file_exists path) then obs_fail path "no such manifest";
  match Json.field_opt (Json.parse (read_file path)) "counters" with
  | Some (Json.Obj kvs) ->
      List.filter_map
        (fun (k, v) -> match v with Json.Num f -> Some (k, f) | _ -> None)
        kvs
  | _ -> obs_fail path "counters: expected object"

let report_compare (path_a, a) (path_b, b) =
  let names =
    List.sort_uniq String.compare
      (List.filter jobs_invariant_counter (List.map fst a @ List.map fst b))
  in
  if names = [] then begin
    Printf.printf "compare %s vs %s: no jobs-invariant counters in either\n"
      path_a path_b;
    exit 0
  end;
  let get kvs k = Option.value (List.assoc_opt k kvs) ~default:0. in
  let width =
    List.fold_left (fun w k -> max w (String.length k)) 7 names
  in
  Printf.printf "jobs-invariant counters: %s vs %s\n" path_a path_b;
  Printf.printf "  %-*s %14s %14s\n" width "counter" "A" "B";
  let mismatches =
    List.filter
      (fun k ->
        let va = get a k and vb = get b k in
        Printf.printf "  %-*s %14.0f %14.0f%s\n" width k va vb
          (if va = vb then "" else "   MISMATCH");
        va <> vb)
      names
  in
  if mismatches = [] then begin
    Printf.printf "all %d jobs-invariant counters agree\n" (List.length names);
    exit 0
  end
  else begin
    List.iter
      (fun k ->
        if k = "stream.sketch_merges" then
          Printf.printf
            "  WARNING: stream.sketch_merges differs between the runs — the \
             chunked merge sequence depended on the jobs count, breaking the \
             streaming determinism contract (doc/observability.md)\n"
        else
          Printf.printf
            "  WARNING: %s differs between the runs — classified \
             jobs-invariant in doc/observability.md\n"
            k)
      mismatches;
    exit 1
  end

let obs_report_cmd =
  let doc =
    "Summarise a run manifest and/or span trace as human-readable tables. \
     With $(b,--compare), diff the jobs-invariant counters of two manifests \
     and exit non-zero on any disagreement; with $(b,--timeline), render a \
     dut-timeline/1 sampling file; with $(b,--profile)/$(b,--flame), turn a \
     trace into per-span-name self-time attribution or folded flamegraph \
     stacks."
  in
  let manifest_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "manifest" ] ~docv:"FILE"
          ~doc:
            (Printf.sprintf "Manifest to read (default %s)."
               Dut_obs.Manifest.default_path))
  in
  let trace_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "JSONL trace to summarise; every line is validated, so a \
             non-zero exit means a malformed trace.")
  in
  let compare_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "compare" ] ~docv:"FILE"
          ~doc:
            "Second manifest: compare the jobs-invariant counters (mc.*, \
             search.*, stream.*) of $(b,--manifest) (or the default \
             manifest) against $(docv); print WARNING lines and exit 1 on \
             any mismatch.")
  in
  let timeline_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "timeline" ] ~docv:"FILE"
          ~doc:
            "Render a dut-timeline/1 sampling file (written by \
             $(b,--sample-interval-ms)) as an aligned time-series table.")
  in
  let profile_flag =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Aggregate $(b,--trace) into per-span-name \
             count/total/self-time (top $(b,--top) by self), and reconcile \
             the summed self time against the manifest's cpu_seconds.")
  in
  let flame_flag =
    Arg.(
      value & flag
      & info [ "flame" ]
          ~doc:
            "Emit $(b,--trace) as folded stacks (one \
             $(i,root;child;leaf self_ns) line per distinct stack) on \
             stdout, ready for standard flamegraph tooling.")
  in
  let top_arg =
    Arg.(
      value & opt int 15
      & info [ "top" ] ~docv:"N"
          ~doc:"Rows shown in the $(b,--profile) table (default 15).")
  in
  let run manifest trace compare timeline profile flame top =
    let need_trace what =
      match trace with
      | Some t -> t
      | None -> obs_fail what "requires --trace FILE"
    in
    (* Every report reads its files through [guard]: JSON of the wrong
       shape raises Json.Malformed from whichever accessor met it, and
       an unreadable file Sys_error; both exit 1 naming the file. *)
    let guard path report =
      try report path
      with Dut_obs.Json.Malformed msg | Sys_error msg -> obs_fail path msg
    in
    let manifest_path =
      Option.value manifest ~default:Dut_obs.Manifest.default_path
    in
    match (compare, timeline, flame, profile) with
    | _, Some path, _, _ -> guard path report_timeline
    | _, _, true, _ -> guard (need_trace "--flame") report_flame
    | _, _, _, true ->
        guard (need_trace "--profile") (fun trace_path ->
            report_profile ~trace_path ~manifest_path ~top:(max 1 top))
    | Some path_b, _, _, _ ->
        let a = guard manifest_path counters_of in
        let b = guard path_b counters_of in
        report_compare (manifest_path, a) (path_b, b)
    | None, None, false, false -> (
        match (manifest, trace) with
        | None, None -> guard manifest_path report_manifest
        | _ ->
            Option.iter (fun path -> guard path report_manifest) manifest;
            (match (manifest, trace) with
            | Some _, Some _ -> print_newline ()
            | _ -> ());
            Option.iter (fun path -> guard path report_trace) trace)
  in
  Cmd.v (Cmd.info "obs-report" ~doc)
    Term.(
      const run $ manifest_arg $ trace_file_arg $ compare_arg $ timeline_arg
      $ profile_flag $ flame_flag $ top_arg)

let main =
  let doc =
    "Reproduction experiments for 'Can Distributed Uniformity Testing Be \
     Local?' (PODC 2019)"
  in
  Cmd.group (Cmd.info "dut" ~doc)
    [
      list_cmd;
      run_cmd;
      run_all_cmd;
      bounds_cmd;
      verify_cmd;
      serve_cmd;
      query_cmd;
      stream_cmd;
      obs_report_cmd;
    ]

let () =
  (* Backtraces feed the # ERROR blocks failure isolation renders; the
     flag costs nothing unless something actually raises. *)
  Printexc.record_backtrace true;
  (* Out-of-range option values (--trials 0, --jobs 0) surface as
     Invalid_argument from Config.make; report them as CLI errors
     rather than cmdliner's "internal error" backtrace. *)
  try exit (Cmd.eval ~catch:false main)
  with
  | Invalid_argument msg ->
      Printf.eprintf "dut: %s\n" msg;
      exit Cmd.Exit.cli_error
  | Failure msg ->
      (* e.g. `dut serve` refusing a socket a live server answers on *)
      Printf.eprintf "dut: %s\n" msg;
      exit 1
