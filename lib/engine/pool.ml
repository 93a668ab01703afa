type job = {
  f : int -> unit;
  tasks : int;
  next : int Atomic.t;  (* next unclaimed task index; >= tasks = no more work *)
  deadline : int option;  (* submitter's Deadline.get_ns at submission *)
  mutable running : int;  (* claimed but unfinished tasks, guarded by the pool mutex *)
  mutable failed : (exn * Printexc.raw_backtrace) option;
      (* first failure, guarded by the pool mutex *)
}

type t = {
  jobs : int;
  mutex : Mutex.t;
  has_work : Condition.t;  (* a new job was posted, or the pool stops *)
  job_done : Condition.t;  (* the current job finished *)
  mutable job : job option;
  mutable stop : bool;
  mutable workers : unit Domain.t array;
  mutable shut : bool;
}

(* Scheduling telemetry: how many task indices each domain claimed, and
   how long workers sat parked on the has-work condition. Both live in
   the claiming domain's own counter table (Dut_obs.Metrics), so the
   tallies cost one array write and never synchronise; they describe
   the schedule, which is the one thing the engine's determinism
   contract does NOT fix — sums are consistent, per-domain splits are
   not reproducible. *)
let m_tasks_claimed = Dut_obs.Metrics.counter "pool.tasks_claimed"

let m_idle_ns = Dut_obs.Metrics.counter "pool.idle_ns"

(* Tasks a job never started because an earlier task failed (or the
   deadline passed): the fast-fail path below jumps the claim counter
   past [tasks] so no domain keeps claiming doomed work. Claimed +
   cancelled always sums to the job's task count. *)
let m_tasks_cancelled = Dut_obs.Metrics.counter "pool.tasks_cancelled"

(* Duration of every task that ran to completion, pooled and inline
   alike. Only successes are observed, so the histogram's count equals
   tasks_claimed minus failures for every jobs value — the sum-
   consistency test in test_obs.ml leans on that. *)
let h_task_ns = Dut_obs.Metrics.histogram "pool.task_ns"

(* Per-domain nesting depth: > 0 while executing a pool task. Used to
   route nested parallel calls to the inline sequential path instead of
   blocking a worker on its own pool. *)
let task_depth = Domain.DLS.new_key (fun () -> 0)

let in_task () = Domain.DLS.get task_depth > 0

let run_task j i =
  Domain.DLS.set task_depth (Domain.DLS.get task_depth + 1);
  (* Worker domains inherit the submitter's deadline for the duration
     of the task, so a --timeout-s armed on the submitting domain bounds
     the whole job; the previous state is restored either way. *)
  let saved_deadline = Deadline.get_ns () in
  Deadline.set_ns j.deadline;
  Fun.protect
    ~finally:(fun () ->
      Deadline.set_ns saved_deadline;
      Domain.DLS.set task_depth (Domain.DLS.get task_depth - 1))
    (fun () ->
      Deadline.check ();
      j.f i)

(* Claim and run tasks of [j] until its counter is exhausted. Callable
   from workers and from the submitter alike.

   Failure fast-fails the job: the first exception is recorded (with
   its backtrace) and the claim counter jumps past [tasks], so no
   domain claims further work. Tasks already running on other domains
   complete; tasks never claimed are tallied as pool.tasks_cancelled. *)
let drain t j =
  let claim () =
    Mutex.lock t.mutex;
    let i = Atomic.get j.next in
    if i >= j.tasks then begin
      Mutex.unlock t.mutex;
      None
    end
    else begin
      Atomic.set j.next (i + 1);
      j.running <- j.running + 1;
      Mutex.unlock t.mutex;
      Some i
    end
  in
  let fail e bt =
    Mutex.lock t.mutex;
    if j.failed = None then j.failed <- Some (e, bt);
    let skipped = j.tasks - Atomic.get j.next in
    if skipped > 0 then begin
      Atomic.set j.next j.tasks;
      Dut_obs.Metrics.add m_tasks_cancelled skipped
    end;
    Mutex.unlock t.mutex
  in
  let finish () =
    Mutex.lock t.mutex;
    j.running <- j.running - 1;
    if j.running = 0 && Atomic.get j.next >= j.tasks then
      Condition.broadcast t.job_done;
    Mutex.unlock t.mutex
  in
  let rec go () =
    match claim () with
    | None -> ()
    | Some i ->
        Dut_obs.Metrics.incr m_tasks_claimed;
        let started = Dut_obs.Span.now_ns () in
        (try
           run_task j i;
           Dut_obs.Metrics.observe h_task_ns (Dut_obs.Span.now_ns () - started)
         with e -> fail e (Printexc.get_raw_backtrace ()));
        finish ();
        go ()
  in
  go ()

let rec worker t =
  Mutex.lock t.mutex;
  (* Prefer a runnable job over stopping, so shutdown lets in-flight
     work drain instead of abandoning it. *)
  let rec await () =
    match t.job with
    | Some j when Atomic.get j.next < j.tasks -> Some j
    | _ ->
        if t.stop then None
        else begin
          let parked = Dut_obs.Span.now_ns () in
          Condition.wait t.has_work t.mutex;
          Dut_obs.Metrics.add m_idle_ns (Dut_obs.Span.now_ns () - parked);
          await ()
        end
  in
  match await () with
  | None -> Mutex.unlock t.mutex
  | Some j ->
      Mutex.unlock t.mutex;
      drain t j;
      worker t

(* The OCaml 5 runtime supports at most 128 domains (Max_domains); one
   belongs to the submitter. Refuse early with a clear message instead
   of dying in Domain.spawn with "failed to allocate domain". *)
let max_jobs = 128

(* Oversubscribing a host buys only domain-synchronisation overhead
   (results are jobs-invariant anyway), so requests beyond the
   recommended domain count are clamped. Warn once per process. *)
let clamp_warned = Atomic.make false

let effective_jobs jobs =
  let cores = Domain.recommended_domain_count () in
  if jobs <= cores then jobs
  else begin
    if not (Atomic.exchange clamp_warned true) then
      Printf.eprintf
        "dut: clamping jobs %d -> %d (recommended domain count of this host)\n%!"
        jobs cores;
    cores
  end

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs < 1";
  if jobs > max_jobs then
    invalid_arg
      (Printf.sprintf "Pool.create: jobs > %d (OCaml's domain limit)" max_jobs);
  let jobs = effective_jobs jobs in
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      has_work = Condition.create ();
      job_done = Condition.create ();
      job = None;
      stop = false;
      workers = [||];
      shut = false;
    }
  in
  (* OCaml starts every domain with backtrace recording off; a worker
     records exactly when its spawner does, so a failure's backtrace
     does not depend on the domain that ran the task. *)
  let record = Printexc.backtrace_status () in
  t.workers <-
    Array.init (jobs - 1) (fun _ ->
        Domain.spawn (fun () ->
            Printexc.record_backtrace record;
            worker t));
  t

let jobs t = t.jobs

(* The inline path keeps the same [in_task] contract as worker
   execution, and the same failure semantics as the pooled path: the
   first exception cancels every task after the failing one (tallied as
   pool.tasks_cancelled) and re-raises with its original backtrace, so
   what a caller observes on failure does not depend on the jobs
   count. *)
let run_inline ~tasks f =
  Domain.DLS.set task_depth (Domain.DLS.get task_depth + 1);
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set task_depth (Domain.DLS.get task_depth - 1))
    (fun () ->
      let i = ref 0 in
      try
        while !i < tasks do
          Deadline.check ();
          Dut_obs.Metrics.incr m_tasks_claimed;
          let started = Dut_obs.Span.now_ns () in
          f !i;
          Dut_obs.Metrics.observe h_task_ns (Dut_obs.Span.now_ns () - started);
          incr i
        done
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        let skipped = tasks - !i - 1 in
        if skipped > 0 then Dut_obs.Metrics.add m_tasks_cancelled skipped;
        Printexc.raise_with_backtrace e bt)

let run t ~tasks f =
  if t.shut then invalid_arg "Pool.run: pool is shut down";
  if tasks > 0 then
    if t.jobs = 1 || tasks = 1 || in_task () then run_inline ~tasks f
    else begin
      let j =
        {
          f;
          tasks;
          next = Atomic.make 0;
          deadline = Deadline.get_ns ();
          running = 0;
          failed = None;
        }
      in
      Mutex.lock t.mutex;
      while t.job <> None do
        Condition.wait t.job_done t.mutex
      done;
      t.job <- Some j;
      Condition.broadcast t.has_work;
      Mutex.unlock t.mutex;
      drain t j;
      Mutex.lock t.mutex;
      (* Done when nothing is claimable and nothing claimed is still
         running — under cancellation the claim counter jumps, so the
         tasks-completed count can be smaller than [tasks]. *)
      while j.running > 0 || Atomic.get j.next < j.tasks do
        Condition.wait t.job_done t.mutex
      done;
      t.job <- None;
      (* Wake submitters queued behind this job. *)
      Condition.broadcast t.job_done;
      Mutex.unlock t.mutex;
      match j.failed with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end

let shutdown t =
  Mutex.lock t.mutex;
  if t.shut then Mutex.unlock t.mutex
  else begin
    t.shut <- true;
    t.stop <- true;
    Condition.broadcast t.has_work;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.workers
  end
