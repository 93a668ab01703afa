let default_path = Filename.concat "results" "manifest.json"

let code = Code_digest.sources ^ "+ocaml-" ^ Sys.ocaml_version

type experiment = {
  id : string;
  seconds : float;
  status : string;
  resumed : bool;
  error : string option;
}

let run_status experiments =
  (* Interruption dominates (the run was cut short, whatever else
     happened inside it), then failure, then ok. *)
  if List.exists (fun e -> e.status = "interrupted") experiments then
    "interrupted"
  else if List.exists (fun e -> e.status = "failed") experiments then "failed"
  else "ok"

let make ~command ~profile ~seed ~jobs ~jobs_requested ~adaptive ~warm_start
    ~wall_seconds ~cpu_seconds ~experiments =
  let counters =
    List.map
      (fun (name, v) ->
        ( name,
          match v with
          | Metrics.Count c -> Json.int c
          | Metrics.Value f -> Json.Num f ))
      (Metrics.snapshot ())
  in
  let histograms =
    List.filter_map
      (fun (name, h) ->
        if Histogram.is_empty h then None
        else Some (name, Histogram.summary_json h))
      (Metrics.histogram_snapshot ())
  in
  let experiment e =
    Json.Obj
      ([
         ("id", Json.Str e.id);
         ("seconds", Json.Num e.seconds);
         ("status", Json.Str e.status);
         ("resumed", Json.Bool e.resumed);
       ]
      @ match e.error with None -> [] | Some m -> [ ("error", Json.Str m) ])
  in
  Json.Obj
    ([
       ("schema", Json.Str "dut-manifest/4");
       ("command", Json.Str command);
       ("status", Json.Str (run_status experiments));
       ("profile", Json.Str profile);
       ("seed", Json.int seed);
       ("jobs", Json.int jobs);
     ]
    (* [jobs] is the parallelism the run actually had (post
       Pool.effective_jobs clamp); the pre-clamp request rides along
       only when the clamp changed it, so a manifest never silently
       claims parallelism the host could not deliver. *)
    @ (if jobs_requested <> jobs then
         [ ("jobs_requested", Json.int jobs_requested) ]
       else [])
    @ [
        ("adaptive", Json.Bool adaptive);
        ("warm_start", Json.Bool warm_start);
        ("code", Json.Str code);
        ("created_unix", Json.Num (Unix.time ()));
        ("wall_seconds", Json.Num wall_seconds);
        ("cpu_seconds", Json.Num cpu_seconds);
        ("experiments", Json.Arr (List.map experiment experiments));
        ("counters", Json.Obj counters);
        ("histograms", Json.Obj histograms);
      ])

(* Two-space-indented rendering: the manifest is meant to be opened by
   humans as often as by `dut obs-report`. *)
let rec pretty b indent v =
  let pad n = String.make n ' ' in
  match v with
  | Json.Arr (_ :: _ as elts) ->
      Buffer.add_string b "[\n";
      List.iteri
        (fun i e ->
          if i > 0 then Buffer.add_string b ",\n";
          Buffer.add_string b (pad (indent + 2));
          pretty b (indent + 2) e)
        elts;
      Buffer.add_char b '\n';
      Buffer.add_string b (pad indent);
      Buffer.add_char b ']'
  | Json.Obj (_ :: _ as kvs) ->
      Buffer.add_string b "{\n";
      List.iteri
        (fun i (k, e) ->
          if i > 0 then Buffer.add_string b ",\n";
          Buffer.add_string b (pad (indent + 2));
          Json.to_buffer b (Json.Str k);
          Buffer.add_string b ": ";
          pretty b (indent + 2) e)
        kvs;
      Buffer.add_char b '\n';
      Buffer.add_string b (pad indent);
      Buffer.add_char b '}'
  | v -> Json.to_buffer b v

let rec mkdir_p dir =
  if dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

(* All-or-nothing file replacement: render next to the target and
   [Sys.rename] over it (atomic within one directory on POSIX), so a
   crash mid-write can truncate only the temp file, never the published
   one. Shared by the manifest and the service summaries. *)
let write_atomic ~path content =
  mkdir_p (Filename.dirname path);
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir (Filename.basename path ^ ".") ".tmp" in
  match
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc content)
  with
  | () -> Sys.rename tmp path
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

let write ?(path = default_path) manifest =
  try
    let b = Buffer.create 4096 in
    pretty b 0 manifest;
    Buffer.add_char b '\n';
    write_atomic ~path (Buffer.contents b)
  with Sys_error msg -> Printf.eprintf "dut: cannot write manifest: %s\n%!" msg
