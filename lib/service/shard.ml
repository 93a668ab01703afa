module J = Dut_obs.Json

let fleet_schema = "dut-service-fleet/2"

(* Router-side tallies. [shard.routed] counts requests forwarded to a
   worker; the rest are answered at the router itself: parse failures
   ([shard.local_errors], byte-identical to the single server's error
   responses) and requests whose shard is gone ([shard.dead_rejects]).
   [shard.stray_responses] counts worker lines with no matching
   in-flight id — a worker bug surfacing as telemetry, never a hang. *)
let m_routed = Dut_obs.Metrics.counter "shard.routed"

let m_local_errors = Dut_obs.Metrics.counter "shard.local_errors"

let m_dead_rejects = Dut_obs.Metrics.counter "shard.dead_rejects"

let m_stray = Dut_obs.Metrics.counter "shard.stray_responses"

(* -- Consistent-hash ring ------------------------------------------------ *)

(* 63-bit point from the MD5 of a string: stable across runs, processes
   and architectures — the property the shared memo store leans on
   (same canonical bytes, same shard, forever). *)
let point_of s =
  let d = Digest.string s in
  let b i = Char.code d.[i] in
  (b 0 lsl 55) lor (b 1 lsl 47) lor (b 2 lsl 39) lor (b 3 lsl 31)
  lor (b 4 lsl 23) lor (b 5 lsl 15) lor (b 6 lsl 7) lor (b 7 lsr 1)

let vnodes = 64

type ring = { points : (int * int) array  (* sorted (point, shard) *) }

let ring ~shards =
  if shards < 1 then invalid_arg "Shard.ring: shards < 1";
  let points =
    Array.init (shards * vnodes) (fun i ->
        let shard = i / vnodes and v = i mod vnodes in
        (point_of (Printf.sprintf "shard:%d:%d" shard v), shard))
  in
  Array.sort compare points;
  { points }

(* First ring point clockwise of the key's point (wrapping): adding a
   shard only captures the keys whose new successor belongs to it, so
   growing the fleet remaps ~1/N of the keyspace instead of all of it. *)
let lookup ring key =
  let p = point_of key in
  let n = Array.length ring.points in
  let rec bsearch lo hi =
    (* smallest index with point >= p, or n *)
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if fst ring.points.(mid) >= p then bsearch lo mid else bsearch (mid + 1) hi
  in
  let i = bsearch 0 n in
  snd ring.points.(if i = n then 0 else i)

let rings : (int, ring) Hashtbl.t = Hashtbl.create 4

let shard_of_key ~shards key =
  let r =
    match Hashtbl.find_opt rings shards with
    | Some r -> r
    | None ->
        let r = ring ~shards in
        Hashtbl.add rings shards r;
        r
  in
  lookup r key

(* -- Worker paths -------------------------------------------------------- *)

let shard_socket base i = Printf.sprintf "%s.shard%d" base i

let shard_summary base i = Printf.sprintf "%s.shard%d" base i

(* -- In-process routing model (the spec the socket router implements) --- *)

let route_batch ?caches ?deadline_s ~jobs ~shards
    (requests : Query.request array) =
  let ring = ring ~shards in
  let n = Array.length requests in
  let where =
    Array.map
      (fun (r : Query.request) ->
        match r.query with
        | Ok q -> lookup ring (Query.canonical q)
        | Error _ -> -1)
      requests
  in
  let responses = Array.make n "" in
  (* Shard partitions evaluate independently (each preserving request
     order within the partition, exactly like one worker's batch); the
     responses land back in request slots, so the reassembled array is
     ordered as if one server had handled the whole batch. *)
  for s = 0 to shards - 1 do
    let idxs = ref [] in
    for i = n - 1 downto 0 do
      if where.(i) = s then idxs := i :: !idxs
    done;
    match !idxs with
    | [] -> ()
    | idxs ->
        let sub = Array.of_list (List.map (fun i -> requests.(i)) idxs) in
        let cache =
          match caches with Some a -> a.(s) | None -> None
        in
        let resp = Server.handle_batch ?cache ?deadline_s ~jobs sub in
        List.iteri (fun j i -> responses.(i) <- resp.(j)) idxs
  done;
  Array.iteri
    (fun i (r : Query.request) ->
      if where.(i) = -1 then begin
        let msg = match r.query with Error m -> m | Ok _ -> assert false in
        Dut_obs.Metrics.incr m_local_errors;
        responses.(i) <-
          Query.response_line ~id:r.Query.id
            (Query.error_payload ("bad query: " ^ msg))
      end)
    requests;
  responses

(* -- Fleet orchestration ------------------------------------------------- *)

type client = {
  conn : Conn.t;
  mutable inflight : int;  (* routed requests not yet answered *)
}

type wconn = {
  w_shard : int;
  w_pid : int;
  w_socket : string;
  w_summary : string;
  mutable w_conn : Conn.t option;  (* None once dead *)
}

type route = { r_client : client; r_client_id : int; r_shard : int }

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (really_input_string ic (in_channel_length ic)))

(* -- Fleet summary ------------------------------------------------------- *)

let num_field j name =
  match J.field_opt j name with
  | Some (J.Num f) when Float.is_integer f -> int_of_float f
  | _ -> 0

let fleet_summary ~(config : Server.config) ~status ~created_unix
    ~started_ns ~workers =
  let uptime_seconds =
    float_of_int (Dut_obs.Span.now_ns () - started_ns) /. 1e9
  in
  let summaries =
    List.map
      (fun w ->
        ( w,
          Option.bind (read_file w.w_summary) (fun s ->
              match J.parse (String.trim s) with
              | exception J.Malformed _ -> None
              | j -> Some j) ))
      workers
  in
  let sum name =
    List.fold_left
      (fun acc (_, j) ->
        match j with Some j -> acc + num_field j name | None -> acc)
      0 summaries
  in
  let latency = Dut_obs.Histogram.create () in
  List.iter
    (fun (_, j) ->
      match Option.bind j (fun j -> J.field_opt j "latency_buckets") with
      | Some buckets -> (
          match Dut_obs.Histogram.of_json buckets with
          | h -> Dut_obs.Histogram.merge_into ~into:latency h
          | exception J.Malformed _ -> ())
      | None -> ())
    summaries;
  let requests = sum "requests" in
  let hits = sum "cache_hits" and misses = sum "cache_misses" in
  let alive =
    List.fold_left
      (fun acc w -> if w.w_conn <> None then acc + 1 else acc)
      0 workers
  in
  let count name = J.int (Dut_obs.Metrics.value name) in
  J.Obj
    [
      ("schema", J.Str fleet_schema);
      ("command", J.Str "serve");
      ("status", J.Str status);
      ("socket", J.Str config.Server.socket);
      ("shards", J.int (List.length workers));
      ("jobs", J.int config.Server.jobs);
      ("pid", J.int (Unix.getpid ()));
      ("code", J.Str Dut_obs.Manifest.code);
      ("created_unix", J.Num created_unix);
      ("uptime_seconds", J.Num uptime_seconds);
      ( "router",
        J.Obj
          [
            ("routed", count "shard.routed");
            ("local_errors", count "shard.local_errors");
            ("dead_rejects", count "shard.dead_rejects");
            ("stray_responses", count "shard.stray_responses");
            ("shards_live", J.int alive);
          ] );
      ( "workers",
        J.Arr
          (List.map
             (fun (w, j) ->
               J.Obj
                 [
                   ("shard", J.int w.w_shard);
                   ("pid", J.int w.w_pid);
                   ("socket", J.Str w.w_socket);
                   ("summary", J.Str w.w_summary);
                   ("alive", J.Bool (w.w_conn <> None));
                   ( "status",
                     match Option.bind j (fun j -> J.field_opt j "status") with
                     | Some s -> s
                     | None -> J.Null );
                 ])
             summaries) );
      (* Worker sums only: the router's own local answers live under
         "router" above, so the two sections reconcile independently
         against the per-shard summaries. *)
      ( "aggregate",
        J.Obj
          [
            ("requests", J.int requests);
            ("batches", J.int (sum "batches"));
            ("errors", J.int (sum "errors"));
            ("rejected", J.int (sum "rejected"));
            ("cache_hits", J.int hits);
            ("cache_misses", J.int misses);
            ( "cache_hit_ratio",
              if hits + misses = 0 then J.Null
              else J.Num (float_of_int hits /. float_of_int (hits + misses)) );
            ( "qps",
              if uptime_seconds > 0. then
                J.Num (float_of_int requests /. uptime_seconds)
              else J.Null );
            ("latency_ns", Dut_obs.Histogram.summary_json latency);
          ] );
    ]

let write_fleet_summary ~config ~status ~created_unix ~started_ns ~workers =
  let content =
    J.to_string
      (fleet_summary ~config ~status ~created_unix ~started_ns ~workers)
    ^ "\n"
  in
  try
    Dut_obs.Manifest.write_atomic ~path:config.Server.summary_path content
  with Sys_error msg ->
    Printf.eprintf "dut: cannot write fleet summary: %s\n%!" msg

(* -- The router ---------------------------------------------------------- *)

let connect_retrying path =
  let rec go tries =
    match Conn.connect path with
    | conn -> Some conn
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        if tries >= 400 then None
        else begin
          Unix.sleepf 0.025;
          go (tries + 1)
        end
  in
  go 0

let response_id line =
  match J.parse line with
  | exception J.Malformed _ -> None
  | j -> (
      match J.field_opt j "id" with
      | Some (J.Num f) when Float.is_integer f -> Some (int_of_float f)
      | _ -> None)

(* Re-key a worker response line with the client's id. Worker lines are
   [Query.response_line] output — "{\"id\":N," then the payload bytes
   verbatim — so splicing at the first comma reproduces exactly the
   bytes the single-process server would have sent. *)
let rekey_response ~client_id line =
  match String.index_opt line ',' with
  | Some comma ->
      Printf.sprintf "{\"id\":%d,%s" client_id
        (String.sub line (comma + 1) (String.length line - comma - 1))
  | None -> Printf.sprintf "{\"id\":%d}" client_id

let serve_fleet ~shards (config : Server.config) =
  if shards < 1 then invalid_arg "Shard.serve_fleet: shards < 1";
  if shards = 1 then Server.serve config
  else begin
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ | Sys_error _ -> ());
    (* Claim the public path before forking: a second fleet racing for
       the same socket must refuse before it spawns anything. *)
    let listener = Server.bind_listener config.Server.socket in
    let created_unix = Unix.time () in
    let started_ns = Dut_obs.Span.now_ns () in
    (* Workers fork before the parent touches any engine state: OCaml 5
       domains do not survive fork, so the split must happen while both
       sides are still single-domain. Each child is a complete PR-5
       server on its own socket; they share only the on-disk memo
       directory, which Memo's write-once discipline makes safe. *)
    let spawn i =
      let wconfig =
        {
          config with
          Server.socket = shard_socket config.Server.socket i;
          summary_path = shard_summary config.Server.summary_path i;
        }
      in
      match Unix.fork () with
      | 0 ->
          (try Unix.close listener with Unix.Unix_error _ -> ());
          let code =
            try
              Server.serve ~shard:i wconfig;
              0
            with e ->
              Printf.eprintf "dut: shard %d: %s\n%!" i (Printexc.to_string e);
              1
          in
          Unix._exit code
      | pid -> pid
    in
    let pids = Array.init shards spawn in
    let kill_workers signal =
      Array.iter
        (fun pid -> try Unix.kill pid signal with Unix.Unix_error _ -> ())
        pids
    in
    let workers =
      Array.to_list
        (Array.init shards (fun i ->
             match connect_retrying (shard_socket config.Server.socket i) with
             | Some conn ->
                 {
                   w_shard = i;
                   w_pid = pids.(i);
                   w_socket = shard_socket config.Server.socket i;
                   w_summary = shard_summary config.Server.summary_path i;
                   w_conn = Some conn;
                 }
             | None ->
                 kill_workers Sys.sigterm;
                 Array.iter
                   (fun pid ->
                     try ignore (Unix.waitpid [] pid)
                     with Unix.Unix_error _ -> ())
                   pids;
                 failwith
                   (Printf.sprintf "shard %d never came up on %s" i
                      (shard_socket config.Server.socket i))))
    in
    let warr = Array.of_list workers in
    let routing = ring ~shards in
    let routes : (int, route) Hashtbl.t = Hashtbl.create 256 in
    let next_rid = ref 0 in
    let clients = ref [] in
    let dirty = ref false in
    let last_publish = ref 0. in
    let publish ?(force = false) status =
      let now = Unix.gettimeofday () in
      if force || (!dirty && now -. !last_publish > 0.25) then begin
        write_fleet_summary ~config ~status ~created_unix ~started_ns
          ~workers;
        dirty := false;
        last_publish := now
      end
    in
    let respond_local client id payload =
      Conn.send client.conn (Query.response_line ~id payload);
      dirty := true
    in
    (* A worker vanishing mid-batch fails exactly the requests routed to
       it — in flight now, or arriving while it is down — with an error
       naming the shard; every other shard keeps answering. *)
    let mark_dead w =
      Option.iter Conn.close w.w_conn;
      w.w_conn <- None;
      let dead = ref [] in
      Hashtbl.iter
        (fun rid route -> if route.r_shard = w.w_shard then dead := (rid, route) :: !dead)
        routes;
      List.iter
        (fun (rid, route) ->
          Hashtbl.remove routes rid;
          Dut_obs.Metrics.incr m_dead_rejects;
          route.r_client.inflight <- route.r_client.inflight - 1;
          respond_local route.r_client route.r_client_id
            (Query.error_payload
               (Printf.sprintf "shard %d died mid-batch; retry" w.w_shard)))
        !dead
    in
    let handle_client_line client line =
      let request = Query.request_of_line line in
      match request.Query.query with
      | Error msg ->
          Dut_obs.Metrics.incr m_local_errors;
          respond_local client request.Query.id
            (Query.error_payload ("bad query: " ^ msg))
      | Ok q -> (
          let s = lookup routing (Query.canonical q) in
          match warr.(s).w_conn with
          | None ->
              Dut_obs.Metrics.incr m_dead_rejects;
              respond_local client request.Query.id
                (Query.error_payload
                   (Printf.sprintf "shard %d unavailable; retry" s))
          | Some worker ->
              let rid = !next_rid in
              incr next_rid;
              Hashtbl.add routes rid
                { r_client = client; r_client_id = request.Query.id; r_shard = s };
              client.inflight <- client.inflight + 1;
              Dut_obs.Metrics.incr m_routed;
              Conn.send worker (Query.request_to_line ~id:rid q))
    in
    let handle_worker_line line =
      match response_id line with
      | None -> Dut_obs.Metrics.incr m_stray
      | Some rid -> (
          match Hashtbl.find_opt routes rid with
          | None -> Dut_obs.Metrics.incr m_stray
          | Some route ->
              Hashtbl.remove routes rid;
              route.r_client.inflight <- route.r_client.inflight - 1;
              Conn.send route.r_client.conn
                (rekey_response ~client_id:route.r_client_id line);
              dirty := true)
    in
    (* One router tick: poll everything, accept, read one chunk from
       each ready client and worker and route its lines, then flush
       what can be flushed. [accepting] is false during the shutdown
       drain. *)
    let tick ~accepting =
      let ordered = !clients in
      let live =
        List.filter_map
          (fun w -> Option.map (fun conn -> (w, conn)) w.w_conn)
          workers
      in
      let entries =
        Array.of_list
          ((if accepting then [ (listener, Poll.rd) ] else [])
          @ List.map (fun c -> (Conn.fd c.conn, Conn.interest c.conn)) ordered
          @ List.map (fun (_, conn) -> (Conn.fd conn, Conn.interest conn)) live)
      in
      let ready = Poll.wait ~timeout_ms:250 entries in
      let base = if accepting then 1 else 0 in
      let accepted =
        if accepting && ready.(0).Poll.read then Conn.accept_all listener
        else []
      in
      List.iteri
        (fun i c ->
          if ready.(base + i).Poll.read then
            List.iter (handle_client_line c) (Conn.read c.conn))
        ordered;
      let nclients = List.length ordered in
      List.iteri
        (fun i (_, conn) ->
          if ready.(base + nclients + i).Poll.read then
            List.iter handle_worker_line (Conn.read conn))
        live;
      List.iter
        (fun (w, conn) ->
          Conn.flush conn;
          if Conn.eof conn || not (Conn.alive conn) then mark_dead w)
        live;
      List.iter (fun c -> Conn.flush c.conn) ordered;
      (* Reap clients that are done: half-closed with every routed
         request answered and every byte flushed. *)
      List.iter
        (fun c ->
          if Conn.eof c.conn && c.inflight = 0 && Conn.flushed c.conn then
            Conn.close c.conn)
        ordered;
      clients :=
        List.filter (fun c -> Conn.alive c.conn) ordered
        @ List.map (fun conn -> { conn; inflight = 0 }) accepted
    in
    let module Runner = Dut_experiments.Runner in
    Printf.eprintf "dut: fleet of %d shards on %s (jobs=%d per shard)\n%!"
      shards config.Server.socket config.Server.jobs;
    publish ~force:true "serving";
    Runner.with_sigint_guard (fun () ->
        while not (Runner.interrupted ()) do
          tick ~accepting:true;
          publish "serving"
        done;
        (* Shutdown: stop accepting, pass the signal on, then keep
           relaying until every in-flight request is answered or its
           worker is gone (bounded by a 10s grace period). *)
        (try Unix.close listener with Unix.Unix_error _ -> ());
        (try Unix.unlink config.Server.socket with Unix.Unix_error _ -> ());
        kill_workers Sys.sigint;
        let grace_until = Unix.gettimeofday () +. 10. in
        while
          (Hashtbl.length routes > 0
          || List.exists (fun c -> not (Conn.flushed c.conn)) !clients)
          && List.exists (fun w -> w.w_conn <> None) workers
          && Unix.gettimeofday () < grace_until
        do
          tick ~accepting:false
        done;
        (* Anything still unanswered loses its worker's reply: fill the
           slot so no client is left hanging. *)
        let leftovers = Hashtbl.fold (fun rid r acc -> (rid, r) :: acc) routes [] in
        List.iter
          (fun (rid, route) ->
            Hashtbl.remove routes rid;
            Dut_obs.Metrics.incr m_dead_rejects;
            respond_local route.r_client route.r_client_id
              (Query.error_payload "fleet shutting down; response dropped"))
          leftovers;
        Conn.drain ~until:grace_until (List.map (fun c -> c.conn) !clients);
        List.iter
          (fun w ->
            Option.iter Conn.close w.w_conn;
            w.w_conn <- None)
          workers);
    Array.iter
      (fun pid ->
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      pids;
    write_fleet_summary ~config ~status:"closed" ~created_unix ~started_ns
      ~workers;
    Printf.eprintf "dut: fleet drained — summary at %s\n%!"
      config.Server.summary_path
  end
