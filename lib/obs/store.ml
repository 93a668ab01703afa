let schema = "dut-store/1"

let m_store_races = Metrics.counter "cache.store_races"

let m_write_failures = Metrics.counter "cache.write_failures"

(* The code identity goes into the hashed name, not only the header:
   binaries built from different sources then keep separate entries in
   one directory instead of replacing each other's. *)
let path ~dir ~key =
  Filename.concat dir
    (Digest.to_hex (Digest.string (Manifest.code ^ "\n" ^ key)) ^ ".entry")

let header ~key payload =
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.Str schema);
         ("code", Json.Str Manifest.code);
         ("key", Json.Str key);
         ("bytes", Json.int (String.length payload));
         ("md5", Json.Str (Digest.to_hex (Digest.string payload)));
       ])

(* The header line must be exactly the one this code would write for
   this key and these bytes, so any mismatch reads as a miss: a
   corrupt or foreign file costs a recomputation, never a wrong byte.
   The header ends at the first newline, which must be there: a file
   cut just before it is a miss too. *)
let find ~dir ~key =
  match In_channel.with_open_bin (path ~dir ~key) In_channel.input_all with
  | exception Sys_error _ -> None
  | content -> (
      match String.index_opt content '\n' with
      | None -> None
      | Some nl ->
          let payload =
            String.sub content (nl + 1) (String.length content - nl - 1)
          in
          if String.sub content 0 nl = header ~key payload then Some payload
          else None)

let store ~dir ~key payload =
  let path = path ~dir ~key in
  match
    Manifest.mkdir_p dir;
    let tmp = Filename.temp_file ~temp_dir:dir "entry" ".tmp" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
      (fun () ->
        Out_channel.with_open_bin tmp (fun oc ->
            output_string oc (header ~key payload);
            output_char oc '\n';
            output_string oc payload);
        match Unix.link tmp path with
        | () -> ()
        | exception Unix.Unix_error (Unix.EEXIST, _, _) ->
            (* Another writer published this key first; both held the
               same answer, so theirs stands. A file that does not
               verify is replaced, atomically. *)
            if find ~dir ~key = None then Sys.rename tmp path
            else Metrics.incr m_store_races)
  with
  | () -> ()
  | exception ((Sys_error _ | Unix.Unix_error _) as e) ->
      Metrics.incr m_write_failures;
      let msg =
        match e with
        | Unix.Unix_error (err, _, _) -> Unix.error_message err
        | Sys_error msg -> msg
        | e -> Printexc.to_string e
      in
      Printf.eprintf "dut: cannot write store entry %s: %s\n%!" path msg
