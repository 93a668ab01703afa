module J = Dut_obs.Json

type config = {
  socket : string;
  jobs : int;
  cache : Memo.t option;
  deadline_s : float option;
  max_pending : int;
  summary_path : string;
}

let default_socket = Filename.concat "results" "dut.sock"

let default_summary_path = Filename.concat "results" "service_manifest.json"

let m_requests = Dut_obs.Metrics.counter "service.requests"

let m_batches = Dut_obs.Metrics.counter "service.batches"

let m_errors = Dut_obs.Metrics.counter "service.errors"

let m_rejected = Dut_obs.Metrics.counter "service.rejected"

(* Per-request service latency, cache hits and misses alike: the
   distribution a client actually experiences. The sharding decision
   the ROADMAP gates on reads the p95/p99 of exactly this histogram. *)
let h_request_ns = Dut_obs.Metrics.histogram "service.request_ns"

(* Statistics of the most recent batch, for the session summary.
   Written by handle_batch on the submitting domain and read when the
   summary is assembled (same domain in the serve loop), so a plain ref
   suffices. *)
type batch_stats = {
  b_requests : int;
  b_seconds : float;
  b_hits : int;
  b_latency : Dut_obs.Histogram.t;
}

let last_batch : batch_stats option ref = ref None

let kind_of (r : Query.request) =
  match r.query with
  | Error _ -> "invalid"
  | Ok (Query.Bound _) -> "bound"
  | Ok (Query.Power _) -> "power"
  | Ok (Query.Critical _) -> "critical"

(* -- Batch evaluation --------------------------------------------------- *)

(* One batch: memo lookups happen before dispatch and stores after the
   pool joins — both on the submitting domain, so the cache needs no
   locking — while the evaluations in between run as one engine job.
   The work function catches everything (including the cooperative
   deadline) and returns an error payload: a task that raised would
   fast-fail the whole pool job, which is exactly the blast radius the
   per-request isolation contract rules out. *)
let handle_batch ?cache ?deadline_s ~jobs (requests : Query.request array) =
  let n = Array.length requests in
  Dut_obs.Metrics.add m_requests n;
  Dut_obs.Metrics.incr m_batches;
  let keys =
    Array.map
      (fun (r : Query.request) ->
        match r.query with
        | Ok q -> Some (Query.canonical q)
        | Error _ -> None)
      requests
  in
  let cached =
    Array.map
      (fun key ->
        match (cache, key) with
        | Some c, Some key -> Memo.find c ~key
        | _ -> None)
      keys
  in
  let evaluate (r : Query.request) =
    match r.query with
    | Error msg ->
        Dut_obs.Metrics.incr m_errors;
        Query.error_payload ("bad query: " ^ msg)
    | Ok q -> (
        match
          Dut_engine.Deadline.with_timeout ?seconds:deadline_s (fun () ->
              Query.ok_payload (Query.eval q))
        with
        | payload -> payload
        | exception e ->
            Dut_obs.Metrics.incr m_errors;
            let msg =
              match e with
              | Dut_engine.Deadline.Exceeded ->
                  "deadline exceeded (per-request --deadline-s budget)"
              | Failure msg | Invalid_argument msg -> msg
              | e -> Printexc.to_string e
            in
            Query.error_payload msg)
  in
  let work i =
    let r = requests.(i) in
    let started = Dut_obs.Span.now_ns () in
    let payload =
      Dut_obs.Span.with_ ~name:"service.request"
        ~attrs:
          [
            ("id", J.int r.Query.id);
            ("kind", J.Str (kind_of r));
            ("cached", J.Bool (cached.(i) <> None));
          ]
        (fun () ->
          match cached.(i) with Some payload -> payload | None -> evaluate r)
    in
    Dut_obs.Metrics.observe h_request_ns (Dut_obs.Span.now_ns () - started);
    payload
  in
  let latency_before = Dut_obs.Metrics.histogram_value "service.request_ns" in
  let batch_started = Dut_obs.Span.now_ns () in
  let payloads =
    Dut_obs.Span.with_ ~name:"service.batch"
      ~attrs:[ ("requests", J.int n); ("jobs", J.int jobs) ]
      (fun () -> Dut_engine.Parallel.map ~jobs work (Array.init n Fun.id))
  in
  last_batch :=
    Some
      {
        b_requests = n;
        b_seconds =
          float_of_int (Dut_obs.Span.now_ns () - batch_started) /. 1e9;
        b_hits = Array.fold_left (fun acc c -> if c <> None then acc + 1 else acc) 0 cached;
        b_latency =
          Dut_obs.Histogram.diff
            (Dut_obs.Metrics.histogram_value "service.request_ns")
            latency_before;
      };
  (* Only fresh ok answers are published to the cache: error responses
     (bad query, deadline, raise) must be recomputed next time — a
     transient failure memoized forever would violate the "cached =
     byte-identical to fresh" contract. *)
  let ok_prefix = "{\"status\":\"ok\"" in
  Array.iteri
    (fun i payload ->
      match (cache, keys.(i), cached.(i)) with
      | Some c, Some key, None
        when String.length payload >= String.length ok_prefix
             && String.sub payload 0 (String.length ok_prefix) = ok_prefix ->
          Memo.store c ~key payload
      | _ -> ())
    payloads;
  Array.mapi
    (fun i payload -> Query.response_line ~id:requests.(i).Query.id payload)
    payloads

(* -- Session summary ---------------------------------------------------- *)

let ratio hits misses =
  let total = hits + misses in
  if total = 0 then J.Null
  else J.Num (float_of_int hits /. float_of_int total)

let summary ?shard ~config ~status ~created_unix ~started_ns () =
  let count name = J.int (Dut_obs.Metrics.value name) in
  let counters =
    List.map
      (fun (name, v) ->
        ( name,
          match v with
          | Dut_obs.Metrics.Count c -> J.int c
          | Dut_obs.Metrics.Value f -> J.Num f ))
      (Dut_obs.Metrics.snapshot ())
  in
  let histograms =
    List.filter_map
      (fun (name, h) ->
        if Dut_obs.Histogram.is_empty h then None
        else Some (name, Dut_obs.Histogram.summary_json h))
      (Dut_obs.Metrics.histogram_snapshot ())
  in
  let uptime_seconds =
    float_of_int (Dut_obs.Span.now_ns () - started_ns) /. 1e9
  in
  let requests = Dut_obs.Metrics.value "service.requests" in
  let last_batch_json =
    match !last_batch with
    | None -> J.Null
    | Some b ->
        J.Obj
          [
            ("requests", J.int b.b_requests);
            ("seconds", J.Num b.b_seconds);
            ( "qps",
              if b.b_seconds > 0. then
                J.Num (float_of_int b.b_requests /. b.b_seconds)
              else J.Null );
            ("latency_ns", Dut_obs.Histogram.summary_json b.b_latency);
            ("cache_hit_ratio", ratio b.b_hits (b.b_requests - b.b_hits));
          ]
  in
  J.Obj
    ([
       ("schema", J.Str "dut-service/4");
       ("command", J.Str "serve");
       ("status", J.Str status);
       ("socket", J.Str config.socket);
       ("jobs", J.int config.jobs);
       ("pid", J.int (Unix.getpid ()));
     ]
    @ (match shard with Some s -> [ ("shard", J.int s) ] | None -> [])
    @ [
      ("code", J.Str Dut_obs.Manifest.code);
      ("created_unix", J.Num created_unix);
      ("uptime_seconds", J.Num uptime_seconds);
      ("requests", count "service.requests");
      ("batches", count "service.batches");
      ("cache_hits", count "cache.hits");
      ("cache_misses", count "cache.misses");
      ("errors", count "service.errors");
      ("rejected", count "service.rejected");
      ( "qps",
        if uptime_seconds > 0. then
          J.Num (float_of_int requests /. uptime_seconds)
        else J.Null );
      ( "latency_ns",
        Dut_obs.Histogram.summary_json
          (Dut_obs.Metrics.histogram_value "service.request_ns") );
      (* Exact bucket contents alongside the summary (new in /3): the
         fleet aggregate merges per-shard latency losslessly from
         these instead of averaging pre-computed quantiles. *)
      ( "latency_buckets",
        Dut_obs.Histogram.to_json
          (Dut_obs.Metrics.histogram_value "service.request_ns") );
      ( "cache_hit_ratio",
        ratio
          (Dut_obs.Metrics.value "cache.hits")
          (Dut_obs.Metrics.value "cache.misses") );
      ("last_batch", last_batch_json);
      ("counters", J.Obj counters);
      ("histograms", J.Obj histograms);
    ])

let write_summary ?shard ~config ~status ~created_unix ~started_ns () =
  let content =
    J.to_string (summary ?shard ~config ~status ~created_unix ~started_ns ())
    ^ "\n"
  in
  try Dut_obs.Manifest.write_atomic ~path:config.summary_path content
  with Sys_error msg ->
    Printf.eprintf "dut: cannot write service summary: %s\n%!" msg

(* -- Socket loop -------------------------------------------------------- *)

(* Probing before unlinking is what makes `dut serve` safe to restart:
   a stale socket file left by a crash refuses the connect and is
   removed, but a live server accepts it — and this process must then
   refuse to start rather than steal the path out from under it (the
   old loop's stat-and-unlink silently orphaned the running server). *)
let prepare_socket path =
  match Unix.stat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
      let live =
        match Conn.connect path with
        | probe ->
            Conn.close probe;
            true
        | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
          ->
            false
      in
      if live then
        failwith
          (path
         ^ ": a running server already answers on this socket; stop it or \
            pass a different --socket")
      else ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> failwith (path ^ ": exists and is not a socket")

let bind_listener path =
  prepare_socket path;
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 256;
  (* Non-blocking so one poll wake-up can drain the whole accept queue
     (the old loop accepted one connection per select tick). *)
  Unix.set_nonblock listener;
  listener

let serve ?shard config =
  (* A client that disconnects mid-response must cost the server one
     dropped connection, not a fatal SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  Dut_engine.Parallel.set_default_jobs config.jobs;
  let listener = bind_listener config.socket in
  let created_unix = Unix.time () in
  let started_ns = Dut_obs.Span.now_ns () in
  let publish status =
    write_summary ?shard ~config ~status ~created_unix ~started_ns ()
  in
  publish "serving";
  Printf.eprintf "dut: serving on %s (jobs=%d%s)\n%!" config.socket config.jobs
    (match config.cache with None -> ", cache off" | Some _ -> "");
  (* Live connections in arrival order: the order a batch is cut in. *)
  let conns = ref [] in
  let module Runner = Dut_experiments.Runner in
  Runner.with_sigint_guard (fun () ->
      while not (Runner.interrupted ()) do
        let ordered = !conns in
        let entries =
          Array.of_list
            ((listener, Poll.rd)
            :: List.map (fun c -> (Conn.fd c, Conn.interest c)) ordered)
        in
        let ready = Poll.wait ~timeout_ms:250 entries in
        let accepted =
          if ready.(0).Poll.read then Conn.accept_all listener else []
        in
        (* Arrival order over all ready clients defines the batch
           order; each response carries its request id, so clients
           are insensitive to interleaving across connections. *)
        let pending = ref [] in
        let n_pending = ref 0 in
        List.iteri
          (fun i conn ->
            if ready.(i + 1).Poll.read then
              List.iter
                (fun line ->
                  let request = Query.request_of_line line in
                  if !n_pending >= config.max_pending then begin
                    Dut_obs.Metrics.incr m_rejected;
                    Conn.send conn
                      (Query.response_line ~id:request.Query.id
                         (Query.error_payload
                            (Printf.sprintf
                               "server overloaded (%d requests pending); \
                                retry"
                               !n_pending)))
                  end
                  else begin
                    incr n_pending;
                    pending := (conn, request) :: !pending
                  end)
                (Conn.read conn))
          ordered;
        (match List.rev !pending with
        | [] -> ()
        | batch ->
            let requests = Array.of_list (List.map snd batch) in
            let responses =
              handle_batch ?cache:config.cache ?deadline_s:config.deadline_s
                ~jobs:config.jobs requests
            in
            (* Publish the refreshed summary before the responses go
               out: once a client has its answer, `dut obs-report`
               already accounts for it. *)
            publish "serving";
            List.iteri (fun i (conn, _) -> Conn.send conn responses.(i)) batch);
        List.iter Conn.flush ordered;
        (* A half-closed peer with every answer written is done: close
           it so it never re-enters the poll set. *)
        List.iter
          (fun c -> if Conn.eof c && Conn.flushed c then Conn.close c)
          ordered;
        conns := List.filter Conn.alive ordered @ accepted
      done);
  (try Unix.close listener with Unix.Unix_error _ -> ());
  (try Unix.unlink config.socket with Unix.Unix_error _ -> ());
  (* Replies still queued for slow readers get 10s, as in a fleet. *)
  Conn.drain ~until:(Unix.gettimeofday () +. 10.) !conns;
  publish "closed";
  Printf.eprintf "dut: service drained — summary at %s\n%!" config.summary_path
