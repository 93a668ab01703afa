module J = Dut_obs.Json

let m_duplicates = Dut_obs.Metrics.counter "service.duplicate_responses"

(* Re-key an input line with the client-assigned id. The line is parsed
   (not spliced textually) so a malformed query is caught here and
   answered locally — the server never sees it, and the output still
   carries one response per input line. *)
let prepare i line =
  match J.parse line with
  | exception J.Malformed msg ->
      Error (Query.error_payload ("bad query: " ^ msg))
  | J.Obj kvs ->
      let kvs = List.remove_assoc "id" kvs in
      Ok (J.to_string (J.Obj (("id", J.int i) :: kvs)))
  | _ -> Error (Query.error_payload "bad query: expected a JSON object")

let run ?timeout_s ~socket ~out lines =
  let lines = List.filter (fun l -> String.trim l <> "") lines in
  let n = List.length lines in
  let prepared = List.mapi prepare lines in
  let responses = Array.make n None in
  (* Local errors occupy their slot up front; only the rest go out. *)
  let to_send =
    List.concat
      (List.mapi
         (fun i p ->
           match p with
           | Ok line -> [ line ]
           | Error payload ->
               responses.(i) <- Some (Query.response_line ~id:i payload);
               [])
         prepared)
  in
  let outstanding = ref (List.length to_send) in
  let timed_out = ref false in
  let connect_and_exchange () =
    let conn = Conn.connect socket in
    Fun.protect
      ~finally:(fun () -> Conn.close conn)
      (fun () ->
        List.iter (Conn.send conn) to_send;
        let record line =
          match J.parse line with
          | exception J.Malformed _ -> ()
          | j -> (
              match J.field_opt j "id" with
              | Some (J.Num f)
                when Float.is_integer f
                     && int_of_float f >= 0
                     && int_of_float f < n -> (
                  let id = int_of_float f in
                  match responses.(id) with
                  | None ->
                      responses.(id) <- Some line;
                      decr outstanding
                  | Some _ ->
                      (* A second answer for a filled slot must not
                         decrement [outstanding] (that would end the
                         wait early and drop a sibling's answer) —
                         it is a counted, logged no-op. *)
                      Dut_obs.Metrics.incr m_duplicates;
                      Printf.eprintf
                        "dut query: duplicate response for id %d (ignored)\n%!"
                        id)
              | _ -> ())
        in
        (* Write before the first poll: a batch that fits the socket
           buffer goes out in one write(2), as a blocking client's
           would. *)
        Conn.flush conn;
        (* One absolute deadline over sending and receiving alike: a
           server that stops reading must not park this loop in
           write(2), nor one that drops a response in read(2). *)
        let deadline =
          Option.map (fun s -> Unix.gettimeofday () +. s) timeout_s
        in
        while !outstanding > 0 && not !timed_out do
          if Conn.eof conn || not (Conn.alive conn) then
            failwith "server closed the connection before responding";
          let timeout_ms =
            match deadline with
            | None -> -1
            | Some d ->
                max 0 (int_of_float (ceil ((d -. Unix.gettimeofday ()) *. 1000.)))
          in
          if timeout_ms = 0 then timed_out := true
          else
            let ready =
              (Poll.wait ~timeout_ms [| (Conn.fd conn, Conn.interest conn) |]).(0)
            in
            if ready.Poll.read then List.iter record (Conn.read conn);
            if ready.Poll.write then Conn.flush conn
        done)
  in
  match (if !outstanding > 0 then connect_and_exchange ()) with
  | exception Unix.Unix_error (err, _, _) ->
      Printf.eprintf "dut query: %s: %s\n%!" socket (Unix.error_message err);
      2
  | exception Failure msg ->
      Printf.eprintf "dut query: %s\n%!" msg;
      2
  | () ->
      if !timed_out then
        Printf.eprintf
          "dut query: timed out after %gs with %d response(s) missing\n%!"
          (Option.value timeout_s ~default:0.)
          !outstanding;
      let all_ok = ref true in
      Array.iteri
        (fun i r ->
          match r with
          | Some line ->
              output_string out (line ^ "\n");
              let ok =
                match J.parse line with
                | exception J.Malformed _ -> false
                | j -> (
                    match J.field_opt j "status" with
                    | Some (J.Str "ok") -> true
                    | _ -> false)
              in
              if not ok then all_ok := false
          | None ->
              (* Only reachable on timeout: the read loop otherwise
                 returns once every outstanding id is filled. *)
              output_string out
                (Query.response_line ~id:i
                   (Query.error_payload "no response received")
                ^ "\n");
              all_ok := false)
        responses;
      flush out;
      if !timed_out then 2 else if !all_ok then 0 else 1
