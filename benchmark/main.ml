(* The benchmark of record. See benchmark/README.md.

   One run:      main.exe --workload W --seed N --seconds S --trace 0|1
   A set:        main.exe --out FILE [--repeats N] [--trace 1]
   Comparison:   main.exe --compare A.json B.json
   Inputs:       main.exe --inputs [--workload W] --seed N

   A run prints every metric by name and unit, then, as its last line,
   one JSON object {"correct","attempted","failed","metrics"}: the
   end-to-end metrics with --trace 0, the per-layer ones with
   --trace 1. *)

module J = Dut_obs.Json

let workload = ref ""
let seed = ref 2019
let seconds = ref 25.
let trace = ref 0
let work = ref (Filename.concat "benchmark" "_work")
let trace_dir = ref ""

let dut =
  ref (List.fold_left Filename.concat "_build" [ "default"; "bin"; "dut_cli.exe" ])

let golden_dir = ref (Filename.concat "benchmark" "golden")
let write_golden = ref false
let smoke = ref false
let inputs = ref false
let out = ref ""
let repeats = ref 3
let compare_a = ref ""
let compare_b = ref ""
let bench_json = ref "BENCHMARK.json"

let specs =
  Arg.align
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME one of " ^ String.concat ", " Workloads.names );
      ("--seed", Arg.Set_int seed, "N input seed (default 2019)");
      ("--seconds", Arg.Set_float seconds, "S measure for S seconds (default 25)");
      ( "--trace",
        Arg.Set_int trace,
        "0|1 1 adds a traced pass and the probes, and reports the per-layer \
         metrics" );
      ("--trace-dir", Arg.Set_string trace_dir, "DIR traces (default WORK/trace)");
      ("--work", Arg.Set_string work, "DIR scratch (default benchmark/_work)");
      ("--dut", Arg.Set_string dut, "PATH the dut executable");
      ("--golden", Arg.Set_string golden_dir, "DIR golden digests");
      ( "--write-golden",
        Arg.Set write_golden,
        " record the golden digests instead of checking them (seed 2019)" );
      ("--smoke", Arg.Set smoke, " tiny sizes, one pass, one set-up");
      ("--inputs", Arg.Set inputs, " print digests of the generated inputs");
      ("--out", Arg.Set_string out, "FILE run a set and append it to FILE");
      ("--repeats", Arg.Set_int repeats, "N untraced runs per workload in a set");
      ( "--compare",
        Arg.Tuple [ Arg.Set_string compare_a; Arg.Set_string compare_b ],
        "A_B compare set B with set A, each FILE or FILE@N" );
      ( "--bench-json",
        Arg.Set_string bench_json,
        "FILE the metrics and bounds (default BENCHMARK.json)" );
    ]

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("benchmark: " ^ msg);
      exit 2)
    fmt

(* -- One run ------------------------------------------------------------- *)

(* Stop everything past 170 s: a run must end within 180. A systhread,
   not a domain: an idle domain still joins every minor collection. *)
let watchdog limit_s =
  let finished = Atomic.make false in
  let t0 = Meas.now_ns () in
  let th =
    Thread.create
      (fun () ->
        while not (Atomic.get finished) do
          Thread.delay 0.1;
          if Meas.seconds_since t0 > limit_s && not (Atomic.get finished) then begin
            prerr_endline "benchmark: over the time limit; stopping";
            Server.kill_all ();
            Unix._exit 3
          end
        done)
      ()
  in
  fun () ->
    Atomic.set finished true;
    Thread.join th

let write_profile dir name tables =
  let rows =
    List.concat_map
      (fun (source, aggs) ->
        List.map
          (fun (a : Dut_obs.Profile.agg) ->
            J.Obj
              [
                ("source", J.Str source);
                ("name", J.Str a.agg_name);
                ("count", J.int a.count);
                ("self_ms", J.Num (float_of_int a.self_ns /. 1e6));
                ("total_ms", J.Num (float_of_int a.total_ns /. 1e6));
                ("max_ms", J.Num (float_of_int a.max_ns /. 1e6));
              ])
          aggs)
      tables
  in
  Meas.write_file
    (Filename.concat dir (name ^ ".profile.json"))
    (J.to_string (J.Arr rows) ^ "\n");
  rows

(* Name and unit of every metric BENCHMARK.json lists under [key]. *)
let catalog key =
  match J.field (J.parse (Meas.read_file !bench_json)) key with
  | J.Arr ms -> List.map (fun m -> (J.want_str m "name", J.want_str m "unit")) ms
  | _ -> die "%s: %s is not a list" !bench_json key
  | exception (Sys_error msg | J.Malformed msg) -> die "%s: %s" !bench_json msg

let one_run ctx =
  let end_to_end = catalog "end_to_end" and per_layer = catalog "per_layer" in
  let stop_watchdog = watchdog 170. in
  let outcome =
    match Workloads.run ctx !workload with
    | o -> Ok o
    | exception e -> Error (Printexc.to_string e)
  in
  Server.kill_all ();
  stop_watchdog ();
  match outcome with
  | Error msg -> die "%s: %s" !workload msg
  | Ok o ->
      let t = o.Workloads.tally in
      (* A traced run reports 0 for a layer its workload never runs, and
         only for the layers the workload names as such. *)
      let catalog, computed, unreached =
        if ctx.Workloads.trace_dir = None then (end_to_end, o.e2e, [])
        else (per_layer, o.layer, o.unreached)
      in
      List.iter
        (fun (name, unit_, _) ->
          if List.assoc_opt name catalog <> Some unit_ then
            Workloads.fail t "metric %s (%s) is not in %s" name unit_ !bench_json)
        computed;
      let metrics =
        List.map
          (fun (name, unit_) ->
            let value =
              match List.find_opt (fun (n, _, _) -> n = name) computed with
              | Some (_, _, v) when Float.is_finite v -> v
              | Some _ ->
                  Workloads.fail t "metric %s is not finite" name;
                  0.
              | None when List.mem name unreached -> 0.
              | None ->
                  Workloads.fail t "metric %s was not measured" name;
                  0.
            in
            (name, unit_, value))
          catalog
      in
      Printf.printf "# workload=%s seed=%d seconds=%g jobs=%d trace=%d\n"
        !workload ctx.seed ctx.seconds ctx.jobs !trace;
      List.iter (fun (n, u, v) -> Printf.printf "metric %s %.6g %s\n" n v u) metrics;
      List.iter (fun (n, u, v) -> Printf.printf "layer %s %.17g %s\n" n v u) o.detail;
      List.iter (fun (n, d) -> Printf.printf "digest %s %s\n" n d) o.digests;
      Option.iter
        (fun dir ->
          List.iter
            (fun row ->
              Printf.printf "self-time %s %s count=%.0f self_ms=%.3f total_ms=%.3f\n"
                (J.want_str row "source") (J.want_str row "name")
                (J.want_num row "count") (J.want_num row "self_ms")
                (J.want_num row "total_ms"))
            (write_profile dir !workload o.self_time))
        ctx.trace_dir;
      List.iter
        (fun p -> prerr_endline ("benchmark: FAILED " ^ p))
        (List.rev t.problems);
      Printf.printf
        "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
        (t.failed = 0 && t.attempted > 0) t.attempted t.failed
        (String.concat ","
           (List.map
              (fun (n, u, v) ->
                Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S}" n v u)
              metrics));
      exit 0

let () =
  Arg.parse specs (fun a -> die "unexpected argument %S" a) usage;
  let jobs = Domain.recommended_domain_count () in
  Dut_engine.Parallel.set_default_jobs jobs;
  at_exit Server.kill_all;
  if !trace_dir = "" then trace_dir := Filename.concat !work "trace";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if !seconds < 0. then die "--seconds must be non-negative";
  if !workload <> "" && not (List.mem !workload Workloads.names) then
    die "unknown workload %S (%s)" !workload
      (String.concat ", " Workloads.names);
  let selected = if !workload = "" then Workloads.names else [ !workload ] in
  if !compare_a <> "" then
    exit
      (try Sets.compare ~bench_json:!bench_json !compare_a !compare_b
       with Failure msg | Sys_error msg | J.Malformed msg -> die "%s" msg)
  else if !inputs then
    List.iter
      (fun w ->
        Printf.printf "inputs %s %s\n" w
          (Meas.md5 (Workloads.inputs ~smoke:!smoke ~seed:!seed w)))
      selected
  else if !out <> "" then begin
    if !repeats < 1 then die "--repeats must be positive";
    let common =
      [
        "--work"; !work; "--trace-dir"; !trace_dir; "--dut"; !dut; "--golden"; !golden_dir;
        "--bench-json"; !bench_json;
      ]
      @ if !smoke then [ "--smoke" ] else []
    in
    try
      Sets.write_set Sys.executable_name ~out:!out ~common ~workloads:selected
        ~seed:!seed ~seconds:!seconds ~repeats:!repeats ~trace:(!trace = 1)
        ~trace_dir:!trace_dir ~jobs
    with Failure msg -> die "%s" msg
  end
  else begin
    if !workload = "" then die "--workload is required (%s)" usage;
    if not (Sys.file_exists !dut) then die "no dut executable at %s" !dut;
    let golden =
      if !write_golden then Workloads.Write !golden_dir
      else if !seed = 2019 && not !smoke then Workloads.Check !golden_dir
      else Workloads.Skip
    in
    let fresh dir = Meas.fresh_dir (Filename.concat dir !workload) in
    let work = fresh !work in
    let trace_dir = if !trace = 1 then Some (fresh !trace_dir) else None in
    (* Let the deletion of the last run's files reach the disk before
       anything is timed. On a file system mounted with online discard,
       the thousands of memo and summary files a query run leaves
       otherwise slowed the next run's set-up and timed part: query-warm
       at one seed read 1,827 to 3,092 requests/s over five runs, and
       2,809 to 2,931 with this sync. *)
    ignore (Sys.command "sync");
    one_run
      {
        Workloads.dut = !dut;
        work;
        seed = !seed;
        seconds = !seconds;
        smoke = !smoke;
        trace_dir;
        golden;
        jobs;
      }
  end
