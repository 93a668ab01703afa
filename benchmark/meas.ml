(* Clocks, CPU and memory readings, order statistics and small file
   helpers. Everything the benchmark measures goes through here. *)

let now_ns = Dut_obs.Span.now_ns

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* user + sys of this process, every domain included. *)
let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let read_file path = In_channel.with_open_bin path In_channel.input_all

let read_lines path =
  String.split_on_char '\n' (read_file path)
  |> List.filter (fun l -> l <> "")

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

(* A fresh, empty directory. *)
let fresh_dir path =
  rm_rf path;
  mkdir_p path;
  path

let md5 s = Digest.to_hex (Digest.string s)

(* /proc/<pid>/stat fields after the parenthesised command name:
   utime is field 14 and stime field 15 of the whole line, in clock
   ticks. USER_HZ is 100 on every Linux ABI. *)
let proc_cpu_s pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> 0.
  | s -> (
      let start = String.rindex s ')' + 2 in
      match String.split_on_char ' ' (String.sub s start (String.length s - start)) with
      | fields when List.length fields > 12 ->
          (float_of_string (List.nth fields 11)
          +. float_of_string (List.nth fields 12))
          /. 100.
      | _ -> 0.)

(* Peak resident set (VmHWM) of a live process, in MB. *)
let vm_hwm_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  match read_lines path with
  | exception Sys_error _ -> 0.
  | lines -> (
      match
        List.find_opt (fun l -> String.starts_with ~prefix:"VmHWM:" l) lines
      with
      | None -> 0.
      | Some l ->
          Scanf.sscanf l "VmHWM: %f kB" (fun kb -> kb /. 1024.))

(* Child processes forked by [pid]'s main thread: the workers of a
   [dut serve --shards N] router. *)
let children pid =
  match read_file (Printf.sprintf "/proc/%d/task/%d/children" pid pid) with
  | exception Sys_error _ -> []
  | s ->
      String.split_on_char ' ' (String.trim s)
      |> List.filter_map int_of_string_opt

(* Nearest-rank quantile of an unsorted sample; 0 when empty. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

(* Midpoint median, as Python's statistics.median gives it. *)
let median xs =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.
  end

let sum xs = Array.fold_left ( +. ) 0. xs

let ratio a b = if b = 0. then 0. else a /. b
