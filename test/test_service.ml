(* Tests for Dut_service: the wire codec's roundtrip and canonical-form
   guarantees, the two-tier memo cache (including its corruption and
   eviction paths), and handle_batch's contracts — failure isolation,
   cold/warm byte-identity through the cache, and jobs-invariance. *)

open Dut_service
module J = Dut_obs.Json

let sample_queries =
  [
    Query.Bound
      { name = "centralized"; params = [ ("eps", 0.25); ("n", 4096.) ] };
    Query.Bound
      {
        name = "thm11_lower";
        params = [ ("eps", 0.3); ("k", 64.); ("n", 1024.) ];
      };
    Query.Power
      {
        tester = Query.And;
        ell = 5;
        eps = 0.25;
        k = 16;
        q = 4;
        trials = 40;
        level = 0.72;
        seed = 7;
        adaptive = true;
      };
    Query.Critical
      {
        tester = Query.Threshold 2;
        ell = 5;
        eps = 0.25;
        k = 16;
        trials = 40;
        level = 0.72;
        seed = 7;
        adaptive = false;
        hi = Some 4096;
        guess = Some 32;
      };
  ]

(* -- Codec --------------------------------------------------------------- *)

let test_codec_roundtrip () =
  List.iteri
    (fun i q ->
      let line = Query.request_to_line ~id:i q in
      let r = Query.request_of_line line in
      Alcotest.(check int) "id survives" i r.Query.id;
      match r.Query.query with
      | Ok q' ->
          Alcotest.(check string)
            "canonical form survives the roundtrip" (Query.canonical q)
            (Query.canonical q')
      | Error msg -> Alcotest.failf "roundtrip rejected %s: %s" line msg)
    sample_queries

let test_codec_defaults_spelled_out () =
  (* A minimal wire query and the fully spelled-out one canonicalise
     identically: trials/level/seed/adaptive defaults are part of the
     canonical form, so they are part of the memo key. *)
  let minimal =
    Query.request_of_line
      {|{"kind":"power","tester":"and","ell":5,"eps":0.25,"k":16,"q":4}|}
  in
  let explicit =
    Query.Power
      {
        tester = Query.And;
        ell = 5;
        eps = 0.25;
        k = 16;
        q = 4;
        trials = 120;
        level = 0.72;
        seed = 2019;
        adaptive = true;
      }
  in
  match minimal.Query.query with
  | Error msg -> Alcotest.failf "minimal query rejected: %s" msg
  | Ok q ->
      Alcotest.(check string)
        "defaults fill in to the explicit canonical form"
        (Query.canonical explicit) (Query.canonical q)

let test_codec_errors () =
  List.iter
    (fun line ->
      match (Query.request_of_line line).Query.query with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed query %s" line)
    [
      "not json";
      {|{"kind":"nope"}|};
      {|{"kind":"power","tester":"xor","ell":5,"eps":0.25,"k":16,"q":4}|};
      {|{"kind":"power","tester":"and","ell":5,"eps":1.5,"k":16,"q":4}|};
      {|{"kind":"power","tester":"and","ell":5,"eps":0.25,"k":16}|};
      {|{"kind":"power","tester":"and","ell":0,"eps":0.25,"k":16,"q":4}|};
      {|{"kind":"bound","name":"centralized"}|};
      {|{"kind":"critical","tester":"threshold","ell":5,"eps":0.25,"k":16}|};
    ]

let test_response_line_splice () =
  Alcotest.(check string)
    "id spliced verbatim" {|{"id":3,"status":"ok","value":5}|}
    (Query.response_line ~id:3 (Query.ok_payload (J.int 5)))

(* -- Evaluation ---------------------------------------------------------- *)

let test_bound_eval_matches_direct () =
  let check name params expect =
    match Query.eval (Query.Bound { name; params }) with
    | J.Num v -> Alcotest.(check (float 0.)) name expect v
    | _ -> Alcotest.failf "%s: expected a number" name
  in
  check "centralized"
    [ ("eps", 0.25); ("n", 4096.) ]
    (Dut_core.Bounds.centralized ~n:4096 ~eps:0.25);
  check "thm11_lower"
    [ ("eps", 0.3); ("k", 64.); ("n", 1024.) ]
    (Dut_core.Bounds.thm11_lower ~n:1024 ~k:64 ~eps:0.3);
  check "thm14_learning_nodes"
    [ ("n", 4096.); ("q", 4.) ]
    (Dut_core.Bounds.thm14_learning_nodes ~n:4096 ~q:4)

let test_bound_eval_failures () =
  List.iter
    (fun q ->
      match Query.eval q with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "expected Failure")
    [
      Query.Bound { name = "no_such_bound"; params = [] };
      Query.Bound { name = "centralized"; params = [ ("n", 4096.) ] };
    ]

(* Power and critical answers for every tester the wire names, pinned
   as response lines. The last query asks for more reject votes than
   there are players; its error text is the tester constructor's. *)
let pinned_answers =
  [
    ( {|{"id":0,"kind":"power","tester":"and","ell":4,"eps":0.3,"k":8,"q":96,"trials":60,"seed":11}|},
      {|{"id":0,"status":"ok","value":true}|} );
    ( {|{"id":1,"kind":"critical","tester":"and","ell":4,"eps":0.3,"k":8,"trials":60,"seed":11}|},
      {|{"id":1,"status":"ok","value":96}|} );
    ( {|{"id":2,"kind":"power","tester":"threshold","t":2,"ell":4,"eps":0.3,"k":8,"q":80,"trials":60,"seed":12}|},
      {|{"id":2,"status":"ok","value":true}|} );
    ( {|{"id":3,"kind":"critical","tester":"threshold","t":2,"ell":4,"eps":0.3,"k":8,"trials":60,"seed":12}|},
      {|{"id":3,"status":"ok","value":68}|} );
    ( {|{"id":4,"kind":"power","tester":"graph","family":"clique","t":1,"ell":4,"eps":0.3,"k":8,"q":120,"trials":60,"seed":13}|},
      {|{"id":4,"status":"ok","value":true}|} );
    ( {|{"id":5,"kind":"critical","tester":"graph","family":"clique","t":1,"ell":4,"eps":0.3,"k":8,"trials":60,"seed":13}|},
      {|{"id":5,"status":"ok","value":82}|} );
    ( {|{"id":6,"kind":"power","tester":"graph","family":"matching","ell":3,"eps":0.5,"k":8,"q":400,"trials":60,"seed":14}|},
      {|{"id":6,"status":"ok","value":false}|} );
    ( {|{"id":7,"kind":"critical","tester":"graph","family":"matching","ell":3,"eps":0.5,"k":8,"trials":60,"seed":14}|},
      {|{"id":7,"status":"ok","value":590}|} );
    ( {|{"id":8,"kind":"power","tester":"threshold","t":9,"ell":4,"eps":0.3,"k":8,"q":12,"trials":60,"seed":12}|},
      {|{"id":8,"status":"error","error":"Comparison_graph.tester_fixed: t outside [1,k]"}|} );
  ]

let test_pinned_answers () =
  List.iter
    (fun (line, expect) ->
      let r = Query.request_of_line line in
      let payload =
        match r.query with
        | Error msg -> Alcotest.failf "%s: %s" line msg
        | Ok q -> (
            match Query.ok_payload (Query.eval q) with
            | p -> p
            | exception (Failure msg | Invalid_argument msg) ->
                Query.error_payload msg)
      in
      Alcotest.(check string) line expect (Query.response_line ~id:r.id payload))
    pinned_answers

(* -- Memo ---------------------------------------------------------------- *)

let counter = Dut_obs.Metrics.value

let test_memo_memory_tier () =
  let m = Memo.create ~capacity:8 () in
  let hits0 = counter "cache.hits" and misses0 = counter "cache.misses" in
  Alcotest.(check (option string)) "empty cache misses" None (Memo.find m ~key:"a");
  Memo.store m ~key:"a" "payload-a";
  Alcotest.(check (option string))
    "stored payload found" (Some "payload-a") (Memo.find m ~key:"a");
  Alcotest.(check int) "one hit tallied" (hits0 + 1) (counter "cache.hits");
  Alcotest.(check int) "one miss tallied" (misses0 + 1) (counter "cache.misses")

let test_memo_lru_eviction () =
  let m = Memo.create ~capacity:2 () in
  Memo.store m ~key:"a" "pa";
  Memo.store m ~key:"b" "pb";
  ignore (Memo.find m ~key:"a");
  (* "b" is now least recently used; the third store evicts it. *)
  Memo.store m ~key:"c" "pc";
  Alcotest.(check int) "capacity respected" 2 (Memo.entries m);
  Alcotest.(check (option string)) "recently used survives" (Some "pa")
    (Memo.find m ~key:"a");
  Alcotest.(check (option string)) "LRU entry evicted" None (Memo.find m ~key:"b")

let with_temp_dir f =
  let dir = Filename.temp_file "dut_memo" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let test_memo_disk_persistence () =
  with_temp_dir @@ fun dir ->
  let m1 = Memo.create ~capacity:8 ~dir:(Some dir) () in
  Memo.store m1 ~key:"query-key" "payload-bytes";
  (* A fresh instance — empty memory front — must hydrate from disk. *)
  let m2 = Memo.create ~capacity:8 ~dir:(Some dir) () in
  Alcotest.(check int) "fresh front is empty" 0 (Memo.entries m2);
  Alcotest.(check (option string))
    "payload replayed from disk" (Some "payload-bytes")
    (Memo.find m2 ~key:"query-key");
  Alcotest.(check int) "disk hit re-promoted" 1 (Memo.entries m2)

let test_memo_corruption_is_a_miss () =
  with_temp_dir @@ fun dir ->
  let m1 = Memo.create ~capacity:8 ~dir:(Some dir) () in
  Memo.store m1 ~key:"k" "good-bytes";
  (* Truncate every stored file: a fresh instance must read a miss,
     never a wrong or partial answer. *)
  Array.iter
    (fun f ->
      let path = Filename.concat dir f in
      let oc = open_out path in
      output_string oc "{\"schema\":\"dut-store/1\"";
      close_out oc)
    (Sys.readdir dir);
  let m2 = Memo.create ~capacity:8 ~dir:(Some dir) () in
  Alcotest.(check (option string))
    "corrupt entry is a miss" None (Memo.find m2 ~key:"k")

let test_memo_write_once_sequential () =
  with_temp_dir @@ fun dir ->
  let races0 = counter "cache.store_races"
  and fails0 = counter "cache.write_failures" in
  let m1 = Memo.create ~capacity:8 ~dir:(Some dir) () in
  Memo.store m1 ~key:"k" "first-payload";
  (* A second instance storing the same key finds it already published:
     a counted no-op, not a write failure, and never an overwrite. *)
  let m2 = Memo.create ~capacity:8 ~dir:(Some dir) () in
  Memo.store m2 ~key:"k" "second-payload";
  Alcotest.(check int) "race counted" (races0 + 1)
    (counter "cache.store_races");
  Alcotest.(check int) "no write failure" fails0
    (counter "cache.write_failures");
  let m3 = Memo.create ~capacity:8 ~dir:(Some dir) () in
  Alcotest.(check (option string))
    "first store won" (Some "first-payload")
    (Memo.find m3 ~key:"k")

(* Two processes hammering the same keys — shards of a fleet sharing
   one store. Must run before anything creates pool domains: forking
   an OCaml 5 runtime with live domains is unsafe. *)
let test_memo_write_once_concurrent () =
  with_temp_dir @@ fun dir ->
  let fails0 = counter "cache.write_failures" in
  let keys = 100 in
  let spawn payload =
    match Unix.fork () with
    | 0 ->
        let code =
          try
            let m = Memo.create ~capacity:8 ~dir:(Some dir) () in
            for i = 0 to keys - 1 do
              Memo.store m ~key:(string_of_int i) payload
            done;
            0
          with _ -> 1
        in
        Unix._exit code
    | pid -> pid
  in
  let a = spawn "payload-A" in
  let b = spawn "payload-B" in
  let status pid = snd (Unix.waitpid [] pid) in
  let sa = status a and sb = status b in
  Alcotest.(check bool) "both writers exited cleanly" true
    (sa = Unix.WEXITED 0 && sb = Unix.WEXITED 0);
  (* Exactly one intact winner per key: one file, bytes of one writer,
     never torn. *)
  Alcotest.(check int) "one file per key" keys
    (Array.length (Sys.readdir dir));
  let m = Memo.create ~capacity:(2 * keys) ~dir:(Some dir) () in
  for i = 0 to keys - 1 do
    match Memo.find m ~key:(string_of_int i) with
    | Some ("payload-A" | "payload-B") -> ()
    | Some other -> Alcotest.failf "key %d: torn payload %S" i other
    | None -> Alcotest.failf "key %d: no winner published" i
  done;
  Alcotest.(check int) "no write failures in the parent" fails0
    (counter "cache.write_failures")

(* -- Socket liveness probe ----------------------------------------------- *)

let test_socket_liveness_probe () =
  let path = Filename.temp_file "dut_sock" "" in
  Sys.remove path;
  (* A live listener on the path: starting a second server here would
     steal the socket from under it, so prepare_socket must refuse. *)
  let listener = Server.bind_listener path in
  (match Server.prepare_socket path with
  | () -> Alcotest.fail "prepare_socket accepted a live socket"
  | exception Failure msg ->
      Alcotest.(check bool) "refusal names the running server" true
        (Astring.String.is_infix ~affix:"running server" msg));
  Alcotest.(check bool) "live socket file untouched" true
    (Sys.file_exists path);
  Unix.close listener;
  (* The same file with its server gone is stale: silently unlinked. *)
  Server.prepare_socket path;
  Alcotest.(check bool) "stale socket unlinked" false (Sys.file_exists path);
  (* A non-socket at the path is never deleted. *)
  let oc = open_out path in
  close_out oc;
  (match Server.prepare_socket path with
  | () -> Alcotest.fail "prepare_socket accepted a non-socket"
  | exception Failure msg ->
      Alcotest.(check bool) "refusal says not a socket" true
        (Astring.String.is_infix ~affix:"not a socket" msg));
  Alcotest.(check bool) "non-socket file untouched" true
    (Sys.file_exists path);
  Sys.remove path

(* -- Client timeout and duplicate responses ------------------------------ *)

(* A stub server (forked, so: before any pool test) that answers id 0
   twice and never answers id 1 — the client must count the duplicate
   as a no-op, fill the missing slot with the "no response received"
   payload at the deadline, and exit 2. *)
let test_client_timeout_and_duplicates () =
  let path = Filename.temp_file "dut_stub" "" in
  Sys.remove path;
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 8;
  let stub () =
    let conn, _ = Unix.accept listener in
    let buf = Bytes.create 4096 in
    let seen = ref 0 in
    while !seen < 2 do
      match Unix.read conn buf 0 (Bytes.length buf) with
      | 0 -> seen := 2
      | n ->
          for i = 0 to n - 1 do
            if Bytes.get buf i = '\n' then incr seen
          done
    done;
    let line = {|{"id":0,"status":"ok","value":1}|} ^ "\n" in
    (* Reply lines that are JSON but not objects are skipped. *)
    let payload = Bytes.of_string ("[]\n1\n\"x\"\n" ^ line ^ line) in
    ignore (Unix.write conn payload 0 (Bytes.length payload));
    (* Hold the connection open so the client times out instead of
       seeing EOF. *)
    Unix.sleepf 5.;
    Unix.close conn;
    0
  in
  match Unix.fork () with
  | 0 -> Unix._exit (try stub () with _ -> 1)
  | pid ->
      Unix.close listener;
      let out_path = Filename.temp_file "dut_client" ".out" in
      let oc = open_out out_path in
      let dups0 = counter "service.duplicate_responses" in
      let code =
        Client.run ~timeout_s:0.5 ~socket:path ~out:oc
          [
            {|{"kind":"bound","name":"centralized","params":{"n":4096,"eps":0.25}}|};
            {|{"kind":"bound","name":"centralized","params":{"n":2048,"eps":0.25}}|};
          ]
      in
      close_out oc;
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      let ic = open_in out_path in
      let out = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Sys.remove out_path;
      (try Sys.remove path with Sys_error _ -> ());
      Alcotest.(check int) "timeout exits 2" 2 code;
      Alcotest.(check int) "still one line per request" 2
        (List.length
           (List.filter
              (fun l -> l <> "")
              (String.split_on_char '\n' out)));
      Alcotest.(check bool) "unanswered slot filled" true
        (Astring.String.is_infix ~affix:"no response received" out);
      Alcotest.(check bool) "answered slot kept the first response" true
        (Astring.String.is_infix ~affix:{|"id":0,"status":"ok","value":1|} out);
      Alcotest.(check int) "duplicate counted once" (dups0 + 1)
        (counter "service.duplicate_responses")

(* -- Serving over the socket ---------------------------------------------- *)

(* These run [dut serve] in a forked child (so: before any pool test)
   and bound every wait with a watchdog of their own — SO_RCVTIMEO on
   a raw socket, or a child killed after 30 s — never with the
   service's deadlines, since a hang is what some of them guard. *)

let bound_line n =
  Printf.sprintf
    {|{"kind":"bound","name":"thm11_lower","params":{"n":%d,"k":64,"eps":0.25}}|}
    n

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let nonblank_lines s =
  List.filter (fun l -> l <> "") (String.split_on_char '\n' s)

(* Reap [pid] within [seconds], else SIGKILL it; [Some code] only for a
   normal exit. *)
let wait_bounded ~seconds pid =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.02;
        go ()
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        None
    | _, Unix.WEXITED code -> Some code
    | _, _ -> None
  in
  go ()

(* Run [f socket] against a forked [Shard.serve_fleet ~shards] (jobs 1,
   no cache), then stop it with SIGINT as an operator would. *)
let with_forked_server ?(max_pending = 1024) ~shards f =
  with_temp_dir @@ fun dir ->
  let socket = Filename.concat dir "dut.sock" in
  let config =
    {
      Server.socket;
      jobs = 1;
      cache = None;
      deadline_s = None;
      max_pending;
      summary_path = Filename.concat dir "summary.json";
    }
  in
  match Unix.fork () with
  | 0 ->
      Unix._exit
        (try
           Shard.serve_fleet ~shards config;
           0
         with _ -> 1)
  | pid ->
      let stop () =
        (try Unix.kill pid Sys.sigint with Unix.Unix_error _ -> ());
        if wait_bounded ~seconds:20. pid = None then
          (* A wedged router cannot reap its workers: kill them by the
             pids their summaries publish. *)
          for i = 0 to shards - 1 do
            match
              J.field_opt
                (J.parse
                   (String.trim
                      (read_file (Shard.shard_summary config.summary_path i))))
                "pid"
            with
            | Some (J.Num p) -> (
                try Unix.kill (int_of_float p) Sys.sigkill
                with Unix.Unix_error _ -> ())
            | _ | (exception _) -> ()
          done
      in
      Fun.protect ~finally:stop (fun () ->
          let rec ready tries =
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            match Unix.connect fd (Unix.ADDR_UNIX socket) with
            | () -> Unix.close fd
            | exception Unix.Unix_error _ when tries < 500 ->
                Unix.close fd;
                Unix.sleepf 0.02;
                ready (tries + 1)
          in
          ready 0;
          f socket)

(* Send [payload] in one write, half-close, and read every response
   line until the server closes. *)
let raw_exchange socket payload =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 20.;
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let b = Bytes.of_string payload in
      Alcotest.(check int) "one write" (Bytes.length b)
        (Unix.write fd b 0 (Bytes.length b));
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let acc = Buffer.create 1024 and buf = Bytes.create 4096 in
      let rec go () =
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes acc buf 0 n;
            go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            Alcotest.fail "no EOF from the server within 20 s"
      in
      go ();
      nonblank_lines (Buffer.contents acc))

(* [Client.run] in a forked child killed after 30 s: the exit code
   ([None] when killed), the output lines and the wall time. *)
let client_in_child ?timeout_s ~socket lines =
  let out_path = Filename.temp_file "dut_client" ".out" in
  let started = Unix.gettimeofday () in
  match Unix.fork () with
  | 0 ->
      let oc = open_out out_path in
      let code = try Client.run ?timeout_s ~socket ~out:oc lines with _ -> 99 in
      close_out oc;
      Unix._exit code
  | pid ->
      let code = wait_bounded ~seconds:30. pid in
      let elapsed = Unix.gettimeofday () -. started in
      let out = read_file out_path in
      Sys.remove out_path;
      (code, nonblank_lines out, elapsed)

let test_max_pending_overflow () =
  with_forked_server ~shards:1 ~max_pending:2 @@ fun socket ->
  let payload =
    String.concat ""
      (List.init 5 (fun i ->
           Printf.sprintf
             {|{"id":%d,"kind":"bound","name":"thm11_lower","params":{"n":%d,"k":64,"eps":0.25}}|}
             i (4096 + i)
           ^ "\n"))
  in
  let by_id =
    List.sort compare
      (List.map
         (fun line ->
           match J.field_opt (J.parse line) "id" with
           | Some (J.Num f) -> (int_of_float f, line)
           | _ -> Alcotest.failf "response without an id: %s" line)
         (raw_exchange socket payload))
  in
  Alcotest.(check (list int)) "one response per id" [ 0; 1; 2; 3; 4 ]
    (List.map fst by_id);
  List.iter
    (fun (id, line) ->
      if id < 2 then
        Alcotest.(check bool) (Printf.sprintf "id %d ok" id) true
          (Astring.String.is_infix ~affix:{|"status":"ok"|} line)
      else
        Alcotest.(check string) (Printf.sprintf "id %d rejected" id)
          (Query.response_line ~id
             (Query.error_payload
                "server overloaded (2 requests pending); retry"))
          line)
    by_id

let test_unterminated_last_request () =
  List.iter
    (fun shards ->
      with_forked_server ~shards @@ fun socket ->
      match raw_exchange socket (bound_line 4096) with
      | [ line ] ->
          Alcotest.(check bool)
            (Printf.sprintf "shards=%d: ok" shards)
            true
            (Astring.String.is_infix ~affix:{|"status":"ok"|} line)
      | lines ->
          Alcotest.failf "shards=%d: %d responses, expected 1" shards
            (List.length lines))
    [ 1; 2 ]

(* A request line that is valid JSON but not an object, or an object
   that is no query, gets an error line with id -1; the server (or the
   router) keeps serving, on that connection and the next. *)
let test_non_object_lines () =
  List.iter
    (fun shards ->
      with_forked_server ~shards @@ fun socket ->
      let valid =
        {|{"id":7,"kind":"bound","name":"thm11_lower","params":{"n":4096,"k":64,"eps":0.25}}|}
      in
      let bad = [ "[]"; "1"; {|"x"|}; "{}" ] in
      let lines =
        raw_exchange socket (String.concat "\n" (bad @ [ valid ]) ^ "\n")
      in
      let errors, others =
        List.partition
          (String.starts_with ~prefix:{|{"id":-1,"status":"error"|})
          lines
      in
      Alcotest.(check int)
        (Printf.sprintf "shards=%d: one error line per bad line" shards)
        (List.length bad) (List.length errors);
      (match others with
      | [ line ] ->
          Alcotest.(check bool)
            (Printf.sprintf "shards=%d: the valid query is answered" shards)
            true
            (String.starts_with ~prefix:{|{"id":7,"status":"ok"|} line)
      | _ ->
          Alcotest.failf "shards=%d: %d other lines, expected 1" shards
            (List.length others));
      match raw_exchange socket valid with
      | [ line ] ->
          Alcotest.(check bool)
            (Printf.sprintf "shards=%d: still serving" shards)
            true
            (String.starts_with ~prefix:{|{"id":7,"status":"ok"|} line)
      | lines ->
          Alcotest.failf "shards=%d: %d responses on a new connection" shards
            (List.length lines))
    [ 1; 2 ]

(* 2 MiB with no newline, from a forked child killed after 30 s: the
   server stops reading past its 1 MiB cap, so the child's write may
   fail once the server closes. The child then reads to the end and
   writes what it got to a file; [None] if it was killed. *)
let unterminated_flood socket =
  let out_path = Filename.temp_file "dut_flood" ".out" in
  match Unix.fork () with
  | 0 ->
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let flood = Bytes.make (2 lsl 20) 'x' in
      (try ignore (Unix.write fd flood 0 (Bytes.length flood))
       with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
      let acc = Buffer.create 256 and buf = Bytes.create 4096 in
      (* A peer closed with unread input reads as ECONNRESET once its
         queued bytes are consumed: the Unix-socket form of EOF here. *)
      let rec go () =
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 | (exception Unix.Unix_error (Unix.ECONNRESET, _, _)) -> ()
        | n ->
            Buffer.add_subbytes acc buf 0 n;
            go ()
      in
      go ();
      Out_channel.with_open_bin out_path (fun oc -> Buffer.output_buffer oc acc);
      Unix._exit 0
  | pid ->
      let code = wait_bounded ~seconds:30. pid in
      let out = read_file out_path in
      Sys.remove out_path;
      (code, nonblank_lines out)

let test_unterminated_input_capped () =
  List.iter
    (fun shards ->
      with_forked_server ~shards @@ fun socket ->
      let code, lines = unterminated_flood socket in
      Alcotest.(check (option int))
        (Printf.sprintf "shards=%d: EOF reached, not killed" shards)
        (Some 0) code;
      Alcotest.(check (list string))
        (Printf.sprintf "shards=%d: one error line" shards)
        [
          Query.response_line ~id:(-1)
            (Query.error_payload
               "line longer than 1048576 bytes; connection closed");
        ]
        lines;
      match raw_exchange socket (bound_line 4096) with
      | [ line ] ->
          Alcotest.(check bool)
            (Printf.sprintf "shards=%d: the next client is answered" shards)
            true
            (Astring.String.is_infix ~affix:{|"status":"ok"|} line)
      | lines ->
          Alcotest.failf "shards=%d: %d responses on a new connection" shards
            (List.length lines))
    [ 1; 2 ]

(* A server that blocks writing replies while its client is still
   writing the batch deadlocks once both socket buffers fill (about
   4,000 bound queries); replies must queue instead. *)
let large_batch shards () =
  with_forked_server ~shards @@ fun socket ->
  let lines = List.init 10_000 (fun i -> bound_line (4097 + i)) in
  let code, out, _ = client_in_child ~timeout_s:60. ~socket lines in
  Alcotest.(check (option int)) "exit 0, not killed" (Some 0) code;
  Alcotest.(check int) "one line per request" 10_000 (List.length out);
  Alcotest.(check int) "every line ok" 10_000
    (List.length
       (List.filter
          (Astring.String.is_infix ~affix:{|"status":"ok"|})
          out))

(* A peer that accepts and never reads: the client's deadline must
   bound its sending too, not only its wait for answers. *)
let test_client_deadline_bounds_sending () =
  let path = Filename.temp_file "dut_stall" "" in
  Sys.remove path;
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 8;
  match Unix.fork () with
  | 0 ->
      let _conn = Unix.accept listener in
      Unix.sleepf 30.;
      Unix._exit 0
  | stub ->
      Unix.close listener;
      Fun.protect
        ~finally:(fun () ->
          Unix.kill stub Sys.sigkill;
          ignore (Unix.waitpid [] stub);
          try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let lines = List.init 40_000 (fun i -> bound_line (4097 + i)) in
          Alcotest.(check bool) "the batch is about 3 MB" true
            (List.fold_left (fun acc l -> acc + String.length l + 1) 0 lines
            > 3_000_000);
          let code, out, elapsed =
            client_in_child ~timeout_s:0.5 ~socket:path lines
          in
          Alcotest.(check (option int)) "exit 2, not killed" (Some 2) code;
          Alcotest.(check bool)
            (Printf.sprintf "returned within 10 s (took %.1f s)" elapsed)
            true (elapsed < 10.);
          Alcotest.(check int) "one no-response line per request" 40_000
            (List.length
               (List.filter
                  (Astring.String.is_infix ~affix:"no response received")
                  out)))

(* -- Consistent-hash ring ------------------------------------------------ *)

let test_ring_range_and_determinism () =
  for shards = 1 to 6 do
    for i = 0 to 199 do
      let key = Printf.sprintf "key-%d" i in
      let s = Shard.shard_of_key ~shards key in
      if s < 0 || s >= shards then
        Alcotest.failf "shards=%d key %s: out of range %d" shards key s;
      Alcotest.(check int) "deterministic" s (Shard.shard_of_key ~shards key)
    done
  done

let test_ring_distribution () =
  let shards = 4 and keys = 2000 in
  let counts = Array.make shards 0 in
  for i = 0 to keys - 1 do
    let s = Shard.shard_of_key ~shards (Printf.sprintf "query-%d" i) in
    counts.(s) <- counts.(s) + 1
  done;
  Array.iteri
    (fun s c ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d gets a fair share (%d of %d keys)" s c keys)
        true
        (c > keys / (shards * 4)))
    counts

let test_ring_growth_stability () =
  (* Growing the fleet N -> N+1 must only move keys onto the new shard,
     and only ~1/(N+1) of them (3x slack for hash variance) — the
     property that makes re-sharding cheap for the shared store. *)
  let keys = 2000 in
  List.iter
    (fun shards ->
      let moved = ref 0 in
      for i = 0 to keys - 1 do
        let key = Printf.sprintf "query-%d" i in
        let before = Shard.shard_of_key ~shards key in
        let after = Shard.shard_of_key ~shards:(shards + 1) key in
        if after <> before then begin
          incr moved;
          Alcotest.(check int) "a moved key lands on the new shard" shards
            after
        end
      done;
      Alcotest.(check bool)
        (Printf.sprintf "N=%d: %d of %d keys moved" shards !moved keys)
        true
        (!moved * (shards + 1) < 3 * keys))
    [ 1; 2; 3; 4 ]

(* -- handle_batch -------------------------------------------------------- *)

let batch_of_lines lines =
  Array.of_list (List.map Query.request_of_line lines)

let good_line id =
  Printf.sprintf
    {|{"id":%d,"kind":"bound","name":"centralized","params":{"n":4096,"eps":0.25}}|}
    id

let test_batch_failure_isolation () =
  let responses =
    Server.handle_batch ~jobs:2
      (batch_of_lines
         [
           good_line 0;
           {|{"id":1,"kind":"bound","name":"no_such_bound","params":{}}|};
           "not json at all";
           good_line 3;
         ])
  in
  let has needle s = Astring.String.is_infix ~affix:needle s in
  Alcotest.(check int) "one response per request" 4 (Array.length responses);
  Alcotest.(check bool) "request 0 ok" true (has {|"status":"ok"|} responses.(0));
  Alcotest.(check bool)
    "unknown bound isolated" true
    (has {|"status":"error"|} responses.(1) && has "no_such_bound" responses.(1));
  Alcotest.(check bool)
    "parse failure isolated (id -1)" true
    (has {|"id":-1|} responses.(2) && has {|"status":"error"|} responses.(2));
  Alcotest.(check bool) "sibling of failures ok" true
    (has {|"status":"ok"|} responses.(3))

let mixed_lines =
  [
    good_line 0;
    {|{"id":1,"kind":"power","tester":"and","ell":5,"eps":0.25,"k":16,"q":4,"trials":30,"seed":7}|};
    {|{"id":2,"kind":"critical","tester":"threshold","t":1,"ell":5,"eps":0.25,"k":16,"trials":30,"seed":7}|};
    {|{"id":3,"kind":"bound","name":"no_such_bound","params":{}}|};
  ]

let test_batch_cold_warm_byte_identity () =
  let cache = Memo.create ~capacity:64 () in
  let run () =
    Server.handle_batch ~cache ~jobs:2 (batch_of_lines mixed_lines)
  in
  let hits0 = counter "cache.hits" in
  let cold = run () in
  Alcotest.(check int) "cold pass has no hits" hits0 (counter "cache.hits");
  let warm = run () in
  Alcotest.(check (array string)) "warm replay is byte-identical" cold warm;
  (* The three ok answers replay from cache; the error recomputes. *)
  Alcotest.(check int) "warm pass hits = ok responses" (hits0 + 3)
    (counter "cache.hits");
  let errors_cached =
    Array.exists (fun r -> Astring.String.is_infix ~affix:"no_such_bound" r) warm
  in
  Alcotest.(check bool) "error response still present" true errors_cached

let test_batch_jobs_invariant () =
  let run jobs = Server.handle_batch ~jobs (batch_of_lines mixed_lines) in
  Alcotest.(check (array string)) "jobs=1 == jobs=4" (run 1) (run 4)

let test_batch_deadline_isolated () =
  (* An adversarially tight (but valid) deadline trips at the first
     engine check point inside the Monte-Carlo probes and must surface
     as an error response, not an exception. *)
  let deadline_s = 1e-6 in
  let responses =
    Server.handle_batch ~deadline_s ~jobs:2
      (batch_of_lines
         [
           {|{"id":0,"kind":"critical","tester":"and","ell":8,"eps":0.25,"k":16,"trials":4000,"adaptive":false,"seed":7}|};
         ])
  in
  Alcotest.(check bool)
    "over-budget query answers with a deadline error" true
    (Astring.String.is_infix ~affix:"deadline" responses.(0))

(* -- route_batch: the fleet's determinism contract ----------------------- *)

let test_route_batch_matches_single () =
  let reqs = batch_of_lines (mixed_lines @ [ "not json" ]) in
  let single = Server.handle_batch ~jobs:2 reqs in
  List.iter
    (fun shards ->
      Alcotest.(check (array string))
        (Printf.sprintf "shards=%d byte-identical to the single server"
           shards)
        single
        (Shard.route_batch ~jobs:2 ~shards reqs))
    [ 1; 2; 4 ]

let test_route_batch_shared_store_replay () =
  with_temp_dir @@ fun dir ->
  let caches shards =
    Array.init shards (fun _ ->
        Some (Memo.create ~capacity:64 ~dir:(Some dir) ()))
  in
  let reqs = batch_of_lines mixed_lines in
  let run shards =
    Shard.route_batch ~caches:(caches shards) ~jobs:2 ~shards reqs
  in
  let cold = run 3 in
  let hits0 = counter "cache.hits" in
  let warm = run 3 in
  Alcotest.(check (array string)) "warm fleet replay byte-identical" cold
    warm;
  Alcotest.(check bool) "warm replay drew on the shared store" true
    (counter "cache.hits" > hits0);
  (* The store is keyed on canonical bytes, not shard layout: any other
     shard count replays the same bytes from the same files. *)
  Alcotest.(check (array string)) "shards=1 replays the fleet's store" cold
    (run 1);
  Alcotest.(check (array string)) "shards=4 replays the fleet's store" cold
    (run 4)

let () =
  Alcotest.run "dut_service"
    [
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "defaults in canonical form" `Quick
            test_codec_defaults_spelled_out;
          Alcotest.test_case "malformed queries rejected" `Quick
            test_codec_errors;
          Alcotest.test_case "response id splice" `Quick
            test_response_line_splice;
        ] );
      ( "eval",
        [
          Alcotest.test_case "bounds match direct calls" `Quick
            test_bound_eval_matches_direct;
          Alcotest.test_case "bad bounds fail" `Quick test_bound_eval_failures;
        ] );
      ( "memo",
        [
          Alcotest.test_case "memory tier" `Quick test_memo_memory_tier;
          Alcotest.test_case "LRU eviction" `Quick test_memo_lru_eviction;
          Alcotest.test_case "disk persistence" `Quick
            test_memo_disk_persistence;
          Alcotest.test_case "corruption reads as miss" `Quick
            test_memo_corruption_is_a_miss;
          Alcotest.test_case "write-once: sequential loser" `Quick
            test_memo_write_once_sequential;
          Alcotest.test_case "write-once: concurrent processes" `Quick
            test_memo_write_once_concurrent;
        ] );
      (* The socket/fork suites stay ahead of anything touching the
         engine pool: forking after OCaml 5 domains exist is unsafe. *)
      ( "socket",
        [
          Alcotest.test_case "liveness probe" `Quick
            test_socket_liveness_probe;
          Alcotest.test_case "client timeout and duplicates" `Quick
            test_client_timeout_and_duplicates;
          Alcotest.test_case "max-pending overflow" `Quick
            test_max_pending_overflow;
          Alcotest.test_case "non-object request lines" `Quick
            test_non_object_lines;
          Alcotest.test_case "unterminated last request" `Quick
            test_unterminated_last_request;
          Alcotest.test_case "unterminated input capped" `Quick
            test_unterminated_input_capped;
          Alcotest.test_case "10,000-line batch, one server" `Quick
            (large_batch 1);
          Alcotest.test_case "10,000-line batch, 2-shard fleet" `Quick
            (large_batch 2);
          Alcotest.test_case "client deadline bounds sending" `Quick
            test_client_deadline_bounds_sending;
        ] );
      ( "ring",
        [
          Alcotest.test_case "range and determinism" `Quick
            test_ring_range_and_determinism;
          Alcotest.test_case "distribution" `Quick test_ring_distribution;
          Alcotest.test_case "growth stability" `Quick
            test_ring_growth_stability;
        ] );
      ( "batch",
        [
          Alcotest.test_case "failure isolation" `Quick
            test_batch_failure_isolation;
          Alcotest.test_case "cold/warm byte-identity" `Quick
            test_batch_cold_warm_byte_identity;
          Alcotest.test_case "jobs-invariance" `Quick test_batch_jobs_invariant;
          Alcotest.test_case "deadline isolation" `Quick
            test_batch_deadline_isolated;
        ] );
      ( "router",
        [
          Alcotest.test_case "route_batch == single server" `Quick
            test_route_batch_matches_single;
          Alcotest.test_case "shared-store replay across shard counts"
            `Quick test_route_batch_shared_store_replay;
        ] );
      ( "pinned",
        [ Alcotest.test_case "power and critical answers" `Quick test_pinned_answers ] );
    ]
