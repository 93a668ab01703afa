(* A malformed or non-positive DUT_JOBS falls back to 1, but never
   silently: a user who exported DUT_JOBS=0 or DUT_JOBS=four meant to
   set parallelism, and a quiet fallback reads as "parallelism is
   broken". One warning per process, matching the oversubscription
   clamp note in Pool.effective_jobs. *)
let env_warned = Atomic.make false

let env_jobs () =
  match Sys.getenv_opt "DUT_JOBS" with
  | None -> 1
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> j
      | Some _ | None ->
          if not (Atomic.exchange env_warned true) then
            Printf.eprintf
              "dut: ignoring DUT_JOBS=%s (expected an integer >= 1); using 1\n%!"
              (Filename.quote s);
          1)

let default = Atomic.make (env_jobs ())

let default_jobs () = Atomic.get default

let set_default_jobs j =
  if j < 1 then invalid_arg "Parallel.set_default_jobs: jobs < 1";
  Atomic.set default j

let resolve_jobs = function
  | None -> Pool.effective_jobs (default_jobs ())
  | Some j when j >= 1 -> Pool.effective_jobs j
  | Some _ -> invalid_arg "Parallel: jobs < 1"

let chunks ~n ~chunk =
  if n < 0 then invalid_arg "Parallel.chunks: n < 0";
  if chunk < 1 then invalid_arg "Parallel.chunks: chunk < 1";
  let nchunks = (n + chunk - 1) / chunk in
  Array.init nchunks (fun c ->
      let lo = c * chunk in
      (lo, min n (lo + chunk)))

(* One process-wide pool shared by every combinator, created lazily and
   resized when a different jobs count is requested. The jobs count is
   scheduling-only, so reuse across callers is always sound. *)
let pool_lock = Mutex.create ()

let shared : Pool.t option ref = ref None

let with_pool ~jobs f =
  Mutex.lock pool_lock;
  let pool =
    match !shared with
    | Some p when Pool.jobs p = jobs -> p
    | prev ->
        (match prev with Some p -> Pool.shutdown p | None -> ());
        let p = Pool.create ~jobs in
        shared := Some p;
        p
  in
  Mutex.unlock pool_lock;
  f pool

(* Coarse chunks: enough tasks per domain for dynamic load balancing,
   few enough that claiming stays cheap. Granularity never affects
   results, only the schedule. *)
let chunk_for ~n ~jobs = max 1 (n / (jobs * 4))

(* Run [f_range lo hi -> 'a array] over the chunk ranges and concatenate
   the per-chunk slices in chunk (= index) order. *)
let chunked ~jobs ~n f_range =
  let bounds = chunks ~n ~chunk:(chunk_for ~n ~jobs) in
  let nchunks = Array.length bounds in
  let parts = Array.make nchunks [||] in
  with_pool ~jobs (fun pool ->
      Pool.run pool ~tasks:nchunks (fun c ->
          let lo, hi = bounds.(c) in
          parts.(c) <- f_range lo hi));
  Array.concat (Array.to_list parts)

(* Sequential fallbacks check the cooperative deadline once per element
   — but only when one is armed, so the default path pays a single DLS
   read per combinator call, never per element. This is what makes
   --timeout-s bite inside the Monte-Carlo trial loops, which run on
   these paths whenever they are nested under a pool task. *)
let checked f =
  if Deadline.active () then fun x ->
    Deadline.check ();
    f x
  else f

let map ?jobs f a =
  let jobs = resolve_jobs jobs in
  let n = Array.length a in
  if jobs <= 1 || n <= 1 || Pool.in_task () then Array.map (checked f) a
  else chunked ~jobs ~n (fun lo hi -> Array.init (hi - lo) (fun i -> f a.(lo + i)))

let init ?jobs ~rng ~n f =
  if n < 0 then invalid_arg "Parallel.init: n < 0";
  let jobs = resolve_jobs jobs in
  (* Pre-split one child stream per element, in index order, before any
     task runs: the schedule can never touch the streams, and the
     children are exactly those the sequential loop would draw. *)
  let rngs = Array.init n (fun _ -> Dut_prng.Rng.split rng) in
  if jobs <= 1 || n <= 1 || Pool.in_task () then
    let f = checked (fun (r, i) -> f r i) in
    Array.mapi (fun i r -> f (r, i)) rngs
  else
    chunked ~jobs ~n (fun lo hi ->
        Array.init (hi - lo) (fun i -> f rngs.(lo + i) (lo + i)))

(* Incremental fold: the chunk is the unit of {e seeding}, not just of
   scheduling. Chunk boundaries are fixed by [~chunk] alone — never by
   the jobs count — and one child stream is split per chunk, in chunk
   order, before any task runs. Partial results merge in chunk index
   order, so the merged value is bit-identical for every jobs count
   even when [merge] is not commutative. This is the ingestion path of
   Dut_stream: a growing stream is consumed chunk by chunk, each chunk
   reduced independently, without materialising per-element state for
   the whole prefix. *)
let fold_chunks ?jobs ~rng ~n ~chunk ~f ~init ~merge =
  if n < 0 then invalid_arg "Parallel.fold_chunks: n < 0";
  if chunk < 1 then invalid_arg "Parallel.fold_chunks: chunk < 1";
  let jobs = resolve_jobs jobs in
  let bounds = chunks ~n ~chunk in
  let nchunks = Array.length bounds in
  (* One child stream per chunk, split in chunk order on the submitting
     domain before any parallel execution: the schedule can never touch
     the streams. *)
  let rngs = Array.init nchunks (fun _ -> Dut_prng.Rng.split rng) in
  if jobs <= 1 || nchunks <= 1 || Pool.in_task () then begin
    let acc = ref init in
    for c = 0 to nchunks - 1 do
      (* The pooled path below checks the cooperative deadline once per
         task claim (Pool.run_task), i.e. once per chunk. Checking per
         chunk here — not per element — keeps the sequential fallback's
         cancellation granularity identical to the pooled one, the same
         inline/pooled parity run_inline restored for failures. *)
      Deadline.check ();
      let lo, hi = bounds.(c) in
      acc := merge !acc (f rngs.(c) ~lo ~hi)
    done;
    !acc
  end
  else begin
    let parts = Array.make nchunks None in
    with_pool ~jobs (fun pool ->
        Pool.run pool ~tasks:nchunks (fun c ->
            let lo, hi = bounds.(c) in
            parts.(c) <- Some (f rngs.(c) ~lo ~hi)));
    Array.fold_left
      (fun acc part ->
        match part with Some v -> merge acc v | None -> assert false)
      init parts
  end

(* [init] is shadowed by init_reduce's [~init] accumulator label. *)
let init_array = init

let init_reduce ?jobs ~rng ~n ~f ~init ~reduce =
  Array.fold_left reduce init (init_array ?jobs ~rng ~n f)

let count ?jobs ~rng ~n pred =
  let resolved = resolve_jobs jobs in
  if n >= 0 && (resolved <= 1 || n <= 1 || Pool.in_task ()) then begin
    (* The Monte-Carlo trial loop. Same child streams as the [init]
       path — one split per element, in index order — but re-seeded
       into a single borrowed scratch source instead of materialising n
       generator records and an n-length hit vector. Children never
       feed back into the parent's splitter, so splitting lazily (per
       iteration) yields exactly the streams the pre-split loop saw. *)
    let deadline = Deadline.active () in
    let child = Dut_prng.Rng.borrow_child () in
    let acc = ref 0 in
    (try
       for i = 0 to n - 1 do
         if deadline then Deadline.check ();
         Dut_prng.Rng.split_into rng child;
         if pred child i then incr acc
       done
     with e ->
       Dut_prng.Rng.release_child child;
       raise e);
    Dut_prng.Rng.release_child child;
    !acc
  end
  else
    Array.fold_left
      (fun acc hit -> if hit then acc + 1 else acc)
      0
      (init ?jobs ~rng ~n pred)
