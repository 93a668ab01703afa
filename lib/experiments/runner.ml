(* Experiments render into per-experiment buffers so that [run_all] can
   execute the registry concurrently (one engine task per experiment)
   while emitting output in registry order, byte-identical to the
   sequential run.

   Failure is isolated at the same boundary: an experiment that raises
   renders an `# ERROR` block into its own buffer and is reported as a
   failed outcome — the other experiments run, print and checkpoint
   exactly as in a clean run (each derives its randomness independently
   from the config seed, so a neighbour's crash cannot shift a single
   stream).

   Telemetry is strictly out of band: spans go to the Dut_obs sink (a
   file), counters to per-domain tables, and neither touches the
   channel — stdout with tracing enabled is byte-identical to stdout
   without. Timings use the monotonised Dut_obs.Span.now_ns clock, so
   an NTP step can never produce a negative or wildly wrong elapsed
   line. *)

type status = Ok | Failed of { exn : string; backtrace : string } | Interrupted

type outcome = { id : string; seconds : float; status : status; resumed : bool }

type report = {
  wall_seconds : float;
  cpu_seconds : float;
  experiments : outcome list;
}

let failed o = match o.status with Failed _ -> true | _ -> false

(* -- Graceful interruption ---------------------------------------------- *)

let interrupt_flag = Atomic.make false

let interrupted () = Atomic.get interrupt_flag

let request_interrupt () = Atomic.set interrupt_flag true

let with_sigint_guard f =
  Atomic.set interrupt_flag false;
  (* First signal: note it and let in-flight experiments drain (the
     run-all loop skips everything not yet started). Second signal:
     the user means it — die immediately with the conventional
     128+SIGINT code. *)
  let handle _ = if Atomic.exchange interrupt_flag true then Stdlib.exit 130 in
  let install s =
    match Sys.signal s (Sys.Signal_handle handle) with
    | prev -> Some (s, prev)
    | exception (Invalid_argument _ | Sys_error _) -> None
  in
  let saved = List.filter_map install [ Sys.sigint; Sys.sigterm ] in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set interrupt_flag false;
      List.iter
        (fun (s, prev) ->
          try Sys.set_signal s prev with Invalid_argument _ | Sys_error _ -> ())
        saved)
    f

(* -- Rendering ----------------------------------------------------------- *)

let seconds_since start_ns = float_of_int (Dut_obs.Span.now_ns () - start_ns) /. 1e9

(* Test-only fault hook: DUT_FAIL_EXPERIMENT=<id> makes exactly that
   experiment raise at the top of its run, exercising the whole
   isolation / non-zero-exit / resume path from the outside. *)
let fault_injected id =
  match Sys.getenv_opt "DUT_FAIL_EXPERIMENT" with
  | Some v -> v = id
  | None -> false

let describe_exn = function
  | Dut_engine.Deadline.Exceeded ->
      "timeout: per-experiment --timeout-s budget exhausted"
  | e -> Printexc.to_string e

let add_header buf cfg (exp : Exp.t) =
  Printf.bprintf buf "# %s — %s\n# %s\n# profile=%s seed=%d\n" exp.Exp.id
    exp.title exp.statement
    (Config.profile_to_string cfg.Config.profile)
    cfg.seed

(* The `# ERROR` block an isolated failure renders in the experiment's
   slot: the exception alone. Its backtrace depends on source line
   numbers, so it travels in the outcome (the CLI prints it on stderr)
   and stdout stays independent of both the schedule and the layout of
   the code. The elapsed figure is gated on ~timings like every other
   wall-clock line, so --no-timings output stays byte-reproducible even
   for failing runs. *)
let add_error_block buf ~timings ~elapsed (exp : Exp.t) ~exn_text =
  if timings then
    Printf.bprintf buf "# ERROR in %s after %.1fs\n" exp.Exp.id elapsed
  else Printf.bprintf buf "# ERROR in %s\n" exp.Exp.id;
  Printf.bprintf buf "# exception: %s\n\n" exn_text

let render_to_buffer ?(csv = false) ~timings ?timeout_s cfg exp =
  Dut_obs.Span.with_ ~name:"experiment"
    ~attrs:
      [
        ("id", Dut_obs.Json.Str exp.Exp.id);
        ("profile", Dut_obs.Json.Str (Config.profile_to_string cfg.Config.profile));
      ]
  @@ fun () ->
  let buf = Buffer.create 4096 in
  add_header buf cfg exp;
  let started = Dut_obs.Span.now_ns () in
  let result =
    match
      Dut_obs.Span.with_ ~name:"experiment.run"
        ~attrs:[ ("id", Dut_obs.Json.Str exp.Exp.id) ]
        (fun () ->
          Dut_engine.Deadline.with_timeout ?seconds:timeout_s (fun () ->
              if fault_injected exp.Exp.id then
                failwith
                  ("injected failure (DUT_FAIL_EXPERIMENT=" ^ exp.Exp.id ^ ")");
              exp.run cfg))
    with
    | tables -> Stdlib.Ok tables
    | exception e -> Stdlib.Error (e, Printexc.get_raw_backtrace ())
  in
  let elapsed = seconds_since started in
  match result with
  | Stdlib.Ok tables ->
      List.iteri
        (fun i t ->
          Dut_obs.Span.with_ ~name:"table"
            ~attrs:
              [
                ("title", Dut_obs.Json.Str t.Table.title);
                ("index", Dut_obs.Json.int i);
                ("rows", Dut_obs.Json.int (List.length t.Table.rows));
              ]
            (fun () ->
              Buffer.add_string buf (if csv then Table.to_csv t else Table.render t);
              Buffer.add_char buf '\n'))
        tables;
      if timings then Printf.bprintf buf "# elapsed: %.1fs\n\n" elapsed
      else Buffer.add_char buf '\n';
      (buf, elapsed, Ok)
  | Stdlib.Error (e, bt) ->
      let exn_text = describe_exn e in
      add_error_block buf ~timings ~elapsed exp ~exn_text;
      (buf, elapsed, Failed { exn = exn_text; backtrace = Printexc.raw_backtrace_to_string bt })

(* The slot of an experiment the interrupt handler kept from starting:
   header plus a marker, so the partial output still reads section by
   section and says how to finish the run. *)
let render_interrupted cfg exp =
  let buf = Buffer.create 256 in
  add_header buf cfg exp;
  Buffer.add_string buf
    "# INTERRUPTED — not run; finish with `dut run-all --resume`\n\n";
  buf

let run_to_channel ?csv ?(timings = true) ?timeout_s cfg exp channel =
  Dut_engine.Parallel.set_default_jobs cfg.Config.jobs;
  let buf, seconds, status = render_to_buffer ?csv ~timings ?timeout_s cfg exp in
  Buffer.output_buffer channel buf;
  flush channel;
  { id = exp.Exp.id; seconds; status; resumed = false }

(* -- Checkpoints ------------------------------------------------------- *)

(* A checkpoint is one Dut_obs.Store entry. Its key text names the
   experiment and every config field its bytes depend on, but not
   jobs: outputs are jobs-invariant by the determinism contract, so a
   checkpoint taken at --jobs 8 replays under --jobs 1. The store adds
   the code identity. The payload is the recorded seconds on one line,
   then the rendered bytes. *)
let checkpoint_key ~csv ~timings (cfg : Config.t) (exp : Exp.t) =
  let open Dut_obs.Json in
  to_string
    (Obj
       [
         ("checkpoint", Str exp.Exp.id);
         ("profile", Str (Config.profile_to_string cfg.profile));
         ("seed", int cfg.seed);
         ("trials", int cfg.trials);
         ("csv", Bool csv);
         ("timings", Bool timings);
         ("adaptive", Bool cfg.adaptive);
         ("warm_start", Bool cfg.warm_start);
       ])

let load_checkpoint ~dir ~key =
  Option.bind (Dut_obs.Store.find ~dir ~key) (fun payload ->
      Option.bind (String.index_opt payload '\n') (fun i ->
          Option.map
            (fun seconds ->
              (String.sub payload (i + 1) (String.length payload - i - 1), seconds))
            (float_of_string_opt (String.sub payload 0 i))))

let run_all_to_channel ?(csv = false) ?(timings = true) ?checkpoint_dir
    ?(resume = false) ?timeout_s ?(experiments = Registry.all) cfg channel =
  (* Make Monte-Carlo loops inside a single experiment use cfg.jobs when
     experiments themselves run one at a time (jobs taken by the map
     below otherwise: nested calls fall back to inline execution). *)
  Dut_engine.Parallel.set_default_jobs cfg.Config.jobs;
  let started = Dut_obs.Span.now_ns () in
  let exps = Array.of_list experiments in
  let keys = Array.map (checkpoint_key ~csv ~timings cfg) exps in
  (* Resume decisions are made up front, on the submitting domain, so
     the work the pool sees is exactly the missing/failed/stale set. *)
  let cached =
    match checkpoint_dir with
    | Some dir when resume -> Array.map (fun key -> load_checkpoint ~dir ~key) keys
    | _ -> Array.map (fun _ -> None) exps
  in
  let work i =
    let exp = exps.(i) in
    match cached.(i) with
    | Some (bytes, seconds) ->
        let buf = Buffer.create (String.length bytes) in
        Buffer.add_string buf bytes;
        ({ id = exp.Exp.id; seconds; status = Ok; resumed = true }, buf)
    | None ->
        if interrupted () then
          ( { id = exp.Exp.id; seconds = 0.; status = Interrupted; resumed = false },
            render_interrupted cfg exp )
        else begin
          let buf, seconds, status =
            render_to_buffer ~csv ~timings ?timeout_s cfg exp
          in
          (* Saved from the worker as soon as the experiment finishes,
             so an interrupted run keeps everything it completed.
             Failed experiments are never stored. *)
          (match (checkpoint_dir, status) with
          | Some dir, Ok ->
              Dut_obs.Store.store ~dir ~key:keys.(i)
                (Printf.sprintf "%h\n%s" seconds (Buffer.contents buf))
          | _ -> ());
          ({ id = exp.Exp.id; seconds; status; resumed = false }, buf)
        end
  in
  let rendered =
    Dut_obs.Span.with_ ~name:"run-all"
      ~attrs:
        ([ ("jobs", Dut_obs.Json.int cfg.Config.jobs) ]
        @ (if cfg.Config.jobs_requested <> cfg.Config.jobs then
             [ ("jobs_requested", Dut_obs.Json.int cfg.Config.jobs_requested) ]
           else [])
        @ if resume then [ ("resume", Dut_obs.Json.Bool true) ] else [])
      (fun () ->
        Dut_engine.Parallel.map ~jobs:cfg.Config.jobs work
          (Array.init (Array.length exps) Fun.id))
  in
  Array.iter (fun (_, buf) -> Buffer.output_buffer channel buf) rendered;
  (* Concurrent experiments overlap, so the per-experiment elapsed
     times sum to busy (CPU-ish) time, not to the run's duration:
     report both rather than passing the sum off as a total. Replayed
     checkpoints cost no CPU this run and are excluded from the sum. *)
  let wall = seconds_since started in
  let cpu =
    Array.fold_left
      (fun t (o, _) -> if o.resumed then t else t +. o.seconds)
      0. rendered
  in
  if timings then
    Printf.fprintf channel "# total: %.1fs wall, %.1fs summed-cpu (jobs=%d)\n"
      wall cpu cfg.Config.jobs;
  flush channel;
  {
    wall_seconds = wall;
    cpu_seconds = cpu;
    experiments = Array.to_list (Array.map fst rendered);
  }
