(* A real `dut serve` process tree, started, probed and stopped from
   outside, the way an operator runs it. *)

module J = Dut_obs.Json

type t = {
  pid : int;
  socket : string;
  summary : string;
  shards : int;
}

(* Every process the benchmark started and has not reaped yet: the
   watchdog and the exit hook stop them. *)
let live : int list ref = ref []

let live_lock = Mutex.create ()

let track pid = Mutex.protect live_lock (fun () -> live := pid :: !live)

let untrack pid =
  Mutex.protect live_lock (fun () -> live := List.filter (( <> ) pid) !live)

(* SIGKILL, workers first: a killed router cannot stop its workers. The
   workers are the router's children, so wait for them through /proc. *)
let kill_all () =
  List.iter
    (fun pid ->
      let workers = Meas.children pid in
      List.iter (fun w -> try Unix.kill w Sys.sigkill with Unix.Unix_error _ -> ()) workers;
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      let deadline = Meas.now_ns () + 5_000_000_000 in
      while
        List.exists (fun w -> Sys.file_exists (Printf.sprintf "/proc/%d" w)) workers
        && Meas.now_ns () < deadline
      do
        Unix.sleepf 0.01
      done)
    (Mutex.protect live_lock (fun () -> !live));
  Mutex.protect live_lock (fun () -> live := [])

(* Run [argv] to completion with its output in [log]. *)
let run_to_completion argv ~log =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Unix.create_process argv.(0) argv Unix.stdin fd fd)
  in
  track pid;
  let _, status = Unix.waitpid [] pid in
  untrack pid;
  if status <> Unix.WEXITED 0 then
    failwith (Printf.sprintf "%s exited abnormally (see %s)" argv.(0) log)

(* Answers exactly like one `dut query` call with a 30 s budget. *)
let ask ~socket ~out line = Dut_service.Client.run ~timeout_s:30. ~socket ~out [ line ]

(* Start `dut serve` in [dir] over the memo store [memo] and return once
   it has answered [probe]: ready means answering, not merely bound. *)
let start ~dut ~dir ~memo ~jobs ~shards ?trace ~probe () =
  Meas.mkdir_p dir;
  let socket = Filename.concat dir "dut.sock"
  and summary = Filename.concat dir "summary.json" in
  let argv =
    Array.of_list
      ([
         dut; "serve"; "--socket"; socket; "--cache-dir"; memo; "--summary";
         summary; "--jobs"; string_of_int jobs; "--shards"; string_of_int shards;
       ]
      @ match trace with Some path -> [ "--trace"; path ] | None -> [])
  in
  let log = Filename.concat dir "serve.log" in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Unix.create_process dut argv Unix.stdin fd fd)
  in
  track pid;
  let t = { pid; socket; summary; shards } in
  let sink = Filename.concat dir "probe.out" in
  let deadline = Meas.now_ns () + 20_000_000_000 in
  let rec wait () =
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ ->
        untrack pid;
        failwith (Printf.sprintf "dut serve died at start-up (see %s)" log));
    let code =
      if Sys.file_exists socket then
        Out_channel.with_open_bin sink (fun out -> ask ~socket ~out probe)
      else 2
    in
    if code = 2 then
      if Meas.now_ns () > deadline then
        failwith (Printf.sprintf "dut serve never answered (see %s)" log)
      else begin
        Unix.sleepf 0.0005;
        wait ()
      end
    else if code <> 0 then failwith ("dut serve rejected the probe: " ^ probe)
  in
  wait ();
  t

(* The server process and its forked workers. *)
let pids t = t.pid :: Meas.children t.pid

let cpu_s t = List.fold_left (fun acc p -> acc +. Meas.proc_cpu_s p) 0. (pids t)

let rss_mb t = List.fold_left (fun acc p -> acc +. Meas.vm_hwm_mb p) 0. (pids t)

(* SIGINT, the graceful stop: the server drains, writes its closing
   summary and exits 0. Waits for the whole tree. *)
let stop t =
  (try Unix.kill t.pid Sys.sigint with Unix.Unix_error _ -> ());
  let deadline = Meas.now_ns () + 30_000_000_000 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ when Meas.now_ns () < deadline ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ ->
        Unix.kill t.pid Sys.sigkill;
        ignore (Unix.waitpid [] t.pid);
        failwith "dut serve ignored SIGINT"
    | _, status -> status
  in
  let status = wait () in
  untrack t.pid;
  if status <> Unix.WEXITED 0 then failwith "dut serve exited non-zero on SIGINT"

let parse_file path = J.parse (String.trim (Meas.read_file path))

(* Worker [i]'s summary, rewritten after every batch: the server's own
   when unsharded. *)
let worker_summary t i =
  if t.shards = 1 then t.summary else Dut_service.Shard.shard_summary t.summary i

(* The summaries as they stand: one per worker, plus the router's fleet
   summary when sharded. A worker rewrites its summary before it answers
   a batch, so between passes it is exact; the router republishes its
   own at most every 0.25 s, so wait until it has routed exactly the
   requests the workers answered. *)
let summaries t =
  let workers = List.init t.shards (fun i -> parse_file (worker_summary t i)) in
  if t.shards = 1 then (workers, None)
  else
    let answered =
      List.fold_left (fun acc w -> acc +. J.want_num w "requests") 0. workers
    in
    let deadline = Meas.now_ns () + 5_000_000_000 in
    let rec wait () =
      let fleet = parse_file t.summary in
      if J.want_num (J.field fleet "router") "routed" = answered then
        (workers, Some fleet)
      else if Meas.now_ns () > deadline then
        failwith "the fleet summary never caught up with its workers"
      else begin
        Unix.sleepf 0.05;
        wait ()
      end
    in
    wait ()
