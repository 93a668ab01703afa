(* Failure-path tests: engine cancellation, cooperative deadlines,
   runner failure isolation, checkpoint/resume and graceful
   interruption.

   Engine-level tests drive Pool/Deadline directly. Runner-level tests
   use a small synthetic registry (via run_all_to_channel's
   ?experiments override) so they exercise the full isolation /
   checkpoint / interrupt machinery without paying for the real
   experiments; the CI crash-injection smoke covers the real registry
   end to end through the CLI. *)

module Pool = Dut_engine.Pool
module Parallel = Dut_engine.Parallel
module Deadline = Dut_engine.Deadline
module Metrics = Dut_obs.Metrics
module Json = Dut_obs.Json
module Manifest = Dut_obs.Manifest
module Config = Dut_experiments.Config
module Exp = Dut_experiments.Exp
module Table = Dut_experiments.Table
module Runner = Dut_experiments.Runner

let counter name =
  let before = Metrics.value name in
  fun () -> Metrics.value name - before

(* -- Pool: fast-fail cancellation --------------------------------------- *)

let test_inline_cancellation () =
  let pool = Pool.create ~jobs:1 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let executed = Array.make 100 false in
  let claimed = counter "pool.tasks_claimed" in
  let cancelled = counter "pool.tasks_cancelled" in
  Alcotest.check_raises "first exception re-raised" (Failure "boom10")
    (fun () ->
      Pool.run pool ~tasks:100 (fun i ->
          if i = 10 then failwith "boom10";
          executed.(i) <- true));
  for i = 0 to 9 do
    Alcotest.(check bool) "tasks before the failure ran" true executed.(i)
  done;
  for i = 10 to 99 do
    Alcotest.(check bool) "tasks after the failure never ran" false
      executed.(i)
  done;
  Alcotest.(check int) "claims stop at the failure" 11 (claimed ());
  Alcotest.(check int) "rest tallied as cancelled" 89 (cancelled ())

let test_pooled_cancellation () =
  if Domain.recommended_domain_count () < 2 then ()
  else begin
    let pool = Pool.create ~jobs:4 in
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
    let tasks = 32 in
    let claimed = counter "pool.tasks_claimed" in
    let cancelled = counter "pool.tasks_cancelled" in
    Alcotest.check_raises "first exception re-raised" (Failure "boom0")
      (fun () ->
        Pool.run pool ~tasks (fun i ->
            if i = 0 then failwith "boom0" else Unix.sleepf 0.005));
    Alcotest.(check int) "claimed + cancelled covers the job" tasks
      (claimed () + cancelled ());
    Alcotest.(check bool) "failure cancelled unclaimed work" true
      (cancelled () > 0)
  end

(* A task that fails on a worker domain records a backtrace whenever
   the spawner records one: workers inherit the setting at creation. *)
let test_worker_backtrace () =
  if Domain.recommended_domain_count () < 2 then ()
  else begin
    let was = Printexc.backtrace_status () in
    Printexc.record_backtrace true;
    Fun.protect ~finally:(fun () -> Printexc.record_backtrace was) @@ fun () ->
    let pool = Pool.create ~jobs:2 in
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
    let submitter = Domain.self () in
    let started = Atomic.make 0 in
    let on_worker = Atomic.make None in
    let give_up = Unix.gettimeofday () +. 10. in
    (* Each task waits until both have started, so exactly one runs on
       the worker; that one fails and keeps what it recorded. *)
    Pool.run pool ~tasks:2 (fun _ ->
        Atomic.incr started;
        while Atomic.get started < 2 && Unix.gettimeofday () < give_up do
          Domain.cpu_relax ()
        done;
        if Domain.self () <> submitter then
          try failwith "worker failure"
          with Failure _ ->
            Atomic.set on_worker
              (Some (Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ()))));
    match Atomic.get on_worker with
    | None -> Alcotest.fail "no task ran on the worker"
    | Some bt ->
        Alcotest.(check bool) "backtrace recorded on the worker" true (bt <> "")
  end

(* -- Deadline: cooperative --timeout-s ---------------------------------- *)

let expire () = Unix.sleepf 0.002

let test_deadline_check () =
  (* No deadline armed: check is free and never raises. *)
  Alcotest.(check bool) "inactive by default" false (Deadline.active ());
  Deadline.check ();
  Alcotest.check_raises "expired deadline raises" Deadline.Exceeded
    (fun () ->
      Deadline.with_timeout ~seconds:1e-4 (fun () ->
          expire ();
          Deadline.check ()));
  Alcotest.(check bool) "disarmed after with_timeout" false
    (Deadline.active ());
  Alcotest.(check int) "?seconds:None is a plain call" 7
    (Deadline.with_timeout (fun () -> 7));
  Alcotest.check_raises "non-positive budget rejected"
    (Invalid_argument "Deadline.with_timeout: seconds <= 0") (fun () ->
      Deadline.with_timeout ~seconds:0. (fun () -> ()))

let test_deadline_nesting () =
  Deadline.with_timeout ~seconds:60. @@ fun () ->
  Alcotest.(check bool) "outer active" true (Deadline.active ());
  Alcotest.check_raises "inner tightens" Deadline.Exceeded (fun () ->
      Deadline.with_timeout ~seconds:1e-4 (fun () ->
          expire ();
          Deadline.check ()));
  (* The outer 60s budget is restored and not expired. *)
  Alcotest.(check bool) "outer restored" true (Deadline.active ());
  Deadline.check ()

let test_deadline_sequential_parallel () =
  Alcotest.check_raises "sequential map checks per element"
    Deadline.Exceeded (fun () ->
      Deadline.with_timeout ~seconds:1e-4 (fun () ->
          expire ();
          ignore (Parallel.map ~jobs:1 (fun x -> x + 1) (Array.make 16 0))))

let test_deadline_pooled () =
  if Domain.recommended_domain_count () < 2 then ()
  else begin
    let pool = Pool.create ~jobs:4 in
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
    Alcotest.check_raises "workers inherit the submitter's deadline"
      Deadline.Exceeded (fun () ->
        Deadline.with_timeout ~seconds:1e-4 (fun () ->
            expire ();
            Pool.run pool ~tasks:8 (fun _ -> ())))
  end

(* -- Synthetic registry for runner tests -------------------------------- *)

let synthetic_exp id =
  {
    Exp.id;
    title = "synthetic " ^ id;
    statement = "failure-path fixture";
    run =
      (fun cfg ->
        let rows =
          List.init 3 (fun i ->
              [ Table.Int i; Table.Int ((cfg.Config.seed + 1) * (i + 1)) ])
        in
        [ Table.make ~title:("table " ^ id) ~columns:[ "i"; "v" ] rows ]);
  }

let ids = [ "FS-alpha"; "FS-beta"; "FS-gamma"; "FS-delta" ]

let synthetic = List.map synthetic_exp ids

let cfg = Config.make ~jobs:1 Config.Fast

let with_fault id f =
  Unix.putenv "DUT_FAIL_EXPERIMENT" id;
  (* The empty string never matches an experiment id, so resetting to it
     disarms the hook (Unix has no unsetenv). *)
  Fun.protect ~finally:(fun () -> Unix.putenv "DUT_FAIL_EXPERIMENT" "") f

let run_all ?checkpoint_dir ?resume ?(cfg = cfg) () =
  let path = Filename.temp_file "dut_failsafe" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  let report =
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Runner.run_all_to_channel ~timings:false ?checkpoint_dir ?resume
          ~experiments:synthetic cfg oc)
  in
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      (report, really_input_string ic (in_channel_length ic)))

(* Split a run-all output into per-experiment sections keyed by the
   "# <id> — " header each slot starts with. *)
let sections output =
  let marker id = "# " ^ id ^ " \xe2\x80\x94 " in
  let positions =
    List.map
      (fun id ->
        match Astring.String.find_sub ~sub:(marker id) output with
        | Some p -> (id, p)
        | None -> Alcotest.fail ("missing section header for " ^ id))
      ids
  in
  let bounds = List.map snd positions @ [ String.length output ] in
  List.mapi
    (fun i (id, p) ->
      (id, String.sub output p (List.nth bounds (i + 1) - p)))
    positions

let temp_dir name =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s_%d" name (Unix.getpid ()))
  in
  if Sys.file_exists dir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
  dir

(* -- Runner: failure isolation ------------------------------------------ *)

let test_failure_isolation () =
  let clean_report, clean = run_all () in
  List.iter
    (fun o -> Alcotest.(check bool) "clean run has no failure" false (Runner.failed o))
    clean_report.Runner.experiments;
  let report, injected = with_fault "FS-beta" (fun () -> run_all ()) in
  let failures = List.filter Runner.failed report.Runner.experiments in
  (match failures with
  | [ o ] -> (
      Alcotest.(check string) "failed id" "FS-beta" o.Runner.id;
      match o.Runner.status with
      | Runner.Failed { exn; _ } ->
          Alcotest.(check bool) "error text names the injection" true
            (Astring.String.is_infix ~affix:"injected failure" exn)
      | _ -> Alcotest.fail "expected Failed status")
  | _ -> Alcotest.fail "expected exactly one failure");
  let clean_s = sections clean and injected_s = sections injected in
  List.iter
    (fun id ->
      let a = List.assoc id clean_s and b = List.assoc id injected_s in
      if id = "FS-beta" then begin
        Alcotest.(check bool) "failed slot renders an ERROR block" true
          (Astring.String.is_infix ~affix:"# ERROR in FS-beta" b);
        Alcotest.(check bool) "ERROR block names the exception" true
          (Astring.String.is_infix ~affix:"injected failure" b)
      end
      else
        Alcotest.(check string) ("section " ^ id ^ " byte-identical") a b)
    ids

let test_failure_jobs_invariance () =
  let _, at_one = with_fault "FS-beta" (fun () -> run_all ()) in
  let cfg4 = Config.make ~jobs:4 Config.Fast in
  let _, at_four =
    with_fault "FS-beta" (fun () -> run_all ~cfg:cfg4 ())
  in
  Alcotest.(check string) "failure output independent of --jobs" at_one
    at_four

let test_timeout_surfaces_as_failure () =
  let slow =
    {
      (synthetic_exp "FS-slow") with
      Exp.run =
        (fun _ ->
          ignore
            (Parallel.map ~jobs:1
               (fun () -> Unix.sleepf 0.002)
               (Array.make 500 ()));
          [] );
    }
  in
  let path = Filename.temp_file "dut_failsafe" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  let outcome =
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Runner.run_to_channel ~timings:false ~timeout_s:0.05 cfg slow oc)
  in
  match outcome.Runner.status with
  | Runner.Failed { exn; _ } ->
      Alcotest.(check bool) "reported as a timeout" true
        (Astring.String.is_infix ~affix:"timeout" exn)
  | _ -> Alcotest.fail "expected the watchdog to fail the experiment"

(* -- Checkpoint/resume -------------------------------------------------- *)

(* The store's entry files in [dir], read whole. *)
let entries dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun f ->
         In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all)

let rewrite_entries dir f =
  Array.iter
    (fun name ->
      let path = Filename.concat dir name in
      let content = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc -> output_string oc (f content)))
    (Sys.readdir dir)

let resumed report =
  List.filter (fun o -> o.Runner.resumed) report.Runner.experiments

let test_checkpoint_resume_identical () =
  let dir = temp_dir "dut_ck_clean" in
  let first_report, first = run_all ~checkpoint_dir:dir () in
  Alcotest.(check int) "one entry per experiment" (List.length ids)
    (List.length (entries dir));
  let report, replayed = run_all ~checkpoint_dir:dir ~resume:true () in
  Alcotest.(check string) "resume replays byte-identically" first replayed;
  List.iter2
    (fun (o : Runner.outcome) (f : Runner.outcome) ->
      Alcotest.(check bool) ("replayed " ^ o.id) true o.resumed;
      Alcotest.(check (float 0.)) ("seconds round-trip " ^ o.id) f.seconds
        o.seconds)
    report.Runner.experiments first_report.Runner.experiments;
  Alcotest.(check (float 1e-9)) "replay costs no cpu this run" 0.
    report.Runner.cpu_seconds

let test_resume_reruns_only_failed () =
  let dir = temp_dir "dut_ck_failed" in
  let _, clean = run_all () in
  let report, _ =
    with_fault "FS-beta" (fun () -> run_all ~checkpoint_dir:dir ())
  in
  Alcotest.(check int) "one failure recorded" 1
    (List.length (List.filter Runner.failed report.Runner.experiments));
  Alcotest.(check int) "failed experiment never checkpointed"
    (List.length ids - 1)
    (List.length (entries dir));
  Alcotest.(check bool) "no entry holds the failed experiment" false
    (List.exists (Astring.String.is_infix ~affix:"FS-beta") (entries dir));
  let report, resumed = run_all ~checkpoint_dir:dir ~resume:true () in
  Alcotest.(check string) "resume completes to the clean output" clean
    resumed;
  List.iter
    (fun o ->
      let expect_resumed = o.Runner.id <> "FS-beta" in
      Alcotest.(check bool)
        ("only the failed experiment re-ran: " ^ o.Runner.id)
        expect_resumed o.Runner.resumed;
      Alcotest.(check bool) "now ok" false (Runner.failed o))
    report.Runner.experiments

(* Nothing that cannot be proven fresh replays: a changed seed, a
   truncated entry or garbage all re-run every experiment, and the
   output still equals the clean run's. *)
let test_checkpoint_staleness () =
  let dir = temp_dir "dut_ck_stale" in
  let _, clean = run_all ~checkpoint_dir:dir () in
  let cfg999 = Config.make ~seed:999 ~jobs:1 Config.Fast in
  let report, _ = run_all ~cfg:cfg999 ~checkpoint_dir:dir ~resume:true () in
  Alcotest.(check int) "stale key never replays" 0
    (List.length (resumed report));
  let rerun_after what damage =
    rewrite_entries dir damage;
    let report, out = run_all ~checkpoint_dir:dir ~resume:true () in
    Alcotest.(check int) (what ^ " never replays") 0
      (List.length (resumed report));
    Alcotest.(check string) (what ^ ": re-run output is clean") clean out
  in
  rerun_after "truncated checkpoint" (fun c ->
      String.sub c 0 (String.length c - 1));
  (* The re-run replaced each damaged entry, so the next resume replays. *)
  let report, _ = run_all ~checkpoint_dir:dir ~resume:true () in
  Alcotest.(check int) "re-run repairs damaged entries" (List.length ids)
    (List.length (resumed report));
  rerun_after "garbage checkpoint" (fun _ -> "not json\nnot payload")

(* -- Interruption ------------------------------------------------------- *)

let test_interrupt_renders_markers () =
  let report, output =
    Runner.with_sigint_guard (fun () ->
        Runner.request_interrupt ();
        run_all ())
  in
  Alcotest.(check bool) "flag cleared after the guard" false
    (Runner.interrupted ());
  List.iter
    (fun o ->
      Alcotest.(check bool) ("interrupted: " ^ o.Runner.id) true
        (o.Runner.status = Runner.Interrupted))
    report.Runner.experiments;
  List.iter
    (fun (id, s) ->
      Alcotest.(check bool) ("marker in slot " ^ id) true
        (Astring.String.is_infix ~affix:"# INTERRUPTED" s))
    (sections output)

let test_sigint_sets_flag () =
  Runner.with_sigint_guard (fun () ->
      Unix.kill (Unix.getpid ()) Sys.sigint;
      (* Delivery is asynchronous; give the runtime a moment. *)
      let deadline = Unix.gettimeofday () +. 2. in
      while (not (Runner.interrupted ())) && Unix.gettimeofday () < deadline do
        ignore (Sys.opaque_identity (ref 0));
        Unix.sleepf 0.001
      done;
      Alcotest.(check bool) "SIGINT requests interruption" true
        (Runner.interrupted ()));
  Alcotest.(check bool) "flag cleared after the guard" false
    (Runner.interrupted ())

(* -- Manifest status and atomic writes ---------------------------------- *)

let manifest_of experiments =
  Manifest.make ~command:"run-all" ~profile:"fast" ~seed:1 ~jobs:2
    ~jobs_requested:2 ~adaptive:true ~warm_start:true ~wall_seconds:1.
    ~cpu_seconds:1. ~experiments

let mexp ?error ?(resumed = false) id status =
  { Manifest.id; seconds = 0.1; status; resumed; error }

let test_manifest_run_status () =
  let status exps = Json.want_str (manifest_of exps) "status" in
  Alcotest.(check string) "all ok" "ok"
    (status [ mexp "a" "ok"; mexp "b" "ok" ]);
  Alcotest.(check string) "failure dominates ok" "failed"
    (status [ mexp "a" "ok"; mexp "b" "failed" ~error:"boom" ]);
  Alcotest.(check string) "interruption dominates failure" "interrupted"
    (status
       [ mexp "a" "ok"; mexp "b" "failed" ~error:"boom"; mexp "c" "interrupted" ]);
  Alcotest.(check bool) "jobs_requested omitted when equal" true
    (Json.field_opt (manifest_of [ mexp "a" "ok" ]) "jobs_requested" = None)

let test_write_atomic () =
  let dir = temp_dir "dut_atomic" in
  let path = Filename.concat dir "nested.json" in
  Manifest.write_atomic ~path "first";
  Manifest.write_atomic ~path "second";
  let ic = open_in_bin path in
  let content =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Alcotest.(check string) "last write wins, no partial states" "second"
    content;
  (* No temp droppings left behind. *)
  Alcotest.(check int) "directory holds only the target" 1
    (Array.length (Sys.readdir dir))

let () =
  Alcotest.run "failsafe"
    [
      ( "pool",
        [
          Alcotest.test_case "inline cancellation" `Quick
            test_inline_cancellation;
          Alcotest.test_case "pooled cancellation" `Quick
            test_pooled_cancellation;
          Alcotest.test_case "worker failure keeps its backtrace" `Quick
            test_worker_backtrace;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "check/arm/disarm" `Quick test_deadline_check;
          Alcotest.test_case "nesting tightens" `Quick test_deadline_nesting;
          Alcotest.test_case "sequential combinators" `Quick
            test_deadline_sequential_parallel;
          Alcotest.test_case "pooled inheritance" `Quick test_deadline_pooled;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "failure isolated, others byte-identical" `Quick
            test_failure_isolation;
          Alcotest.test_case "failure output jobs-invariant" `Quick
            test_failure_jobs_invariance;
          Alcotest.test_case "timeout surfaces as failure" `Quick
            test_timeout_surfaces_as_failure;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "resume replays byte-identically" `Quick
            test_checkpoint_resume_identical;
          Alcotest.test_case "resume re-runs only failed" `Quick
            test_resume_reruns_only_failed;
          Alcotest.test_case "stale/corrupt never replays" `Quick
            test_checkpoint_staleness;
        ] );
      ( "interrupt",
        [
          Alcotest.test_case "request renders markers" `Quick
            test_interrupt_renders_markers;
          Alcotest.test_case "SIGINT sets the flag" `Quick
            test_sigint_sets_flag;
        ] );
      ( "manifest",
        [
          Alcotest.test_case "run status derivation" `Quick
            test_manifest_run_status;
          Alcotest.test_case "atomic writes" `Quick test_write_atomic;
        ] );
    ]
