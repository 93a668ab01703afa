type t = {
  fd : Unix.file_descr;
  input : Buffer.t;  (* bytes read but not yet newline-terminated *)
  mutable out : Bytes.t;  (* queued output is [out.[sent .. queued)] *)
  mutable sent : int;
  mutable queued : int;
  mutable alive : bool;
  mutable eof : bool;
}

let chunk_size = 65536

(* The most input a connection may hold without a newline. A valid
   request or response line is a few hundred bytes; a peer that sends
   more than this unterminated is answered once and no longer read, so
   it cannot grow the process without bound. *)
let max_unterminated = 1 lsl 20

let too_long_line =
  Query.response_line ~id:(-1)
    (Query.error_payload
       (Printf.sprintf "line longer than %d bytes; connection closed"
          max_unterminated))

(* One read buffer per domain, not per connection: a server holding
   thousands of idle connections would otherwise hold thousands of
   chunks, and clients run concurrently on several domains. *)
let scratch = Domain.DLS.new_key (fun () -> Bytes.create chunk_size)

let of_fd fd =
  Unix.set_nonblock fd;
  {
    fd;
    input = Buffer.create 256;
    out = Bytes.empty;
    sent = 0;
    queued = 0;
    alive = true;
    eof = false;
  }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> of_fd fd
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

let accept_all listener =
  let rec go acc =
    match Unix.accept listener with
    | fd, _ -> go (of_fd fd :: acc)
    | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
        go acc
    | exception Unix.Unix_error _ -> List.rev acc
  in
  go []

let fd c = c.fd

let alive c = c.alive

let eof c = c.eof

let flushed c = c.sent = c.queued

let interest c = { Poll.read = not c.eof; write = not (flushed c) }

let close c =
  if c.alive then begin
    c.alive <- false;
    c.sent <- 0;
    c.queued <- 0;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let send c line =
  if c.alive then begin
    let len = String.length line + 1 in
    if c.queued + len > Bytes.length c.out then begin
      (* Move the unsent bytes to the front, into a larger buffer when
         they and the line would not fit. *)
      let unsent = c.queued - c.sent in
      let dst =
        if unsent + len <= Bytes.length c.out then c.out
        else Bytes.create (max (unsent + len) (2 * Bytes.length c.out))
      in
      Bytes.blit c.out c.sent dst 0 unsent;
      c.out <- dst;
      c.sent <- 0;
      c.queued <- unsent
    end;
    Bytes.blit_string line 0 c.out c.queued (len - 1);
    Bytes.set c.out (c.queued + len - 1) '\n';
    c.queued <- c.queued + len
  end

let lines_of data =
  List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' data)

let read c =
  if not c.alive || c.eof then []
  else
    let buf = Domain.DLS.get scratch in
    match Unix.read c.fd buf 0 chunk_size with
    | 0 ->
        c.eof <- true;
        let tail = Buffer.contents c.input in
        Buffer.clear c.input;
        lines_of tail
    | len ->
        let lines =
          match Bytes.rindex_from_opt buf (len - 1) '\n' with
          | None ->
              Buffer.add_subbytes c.input buf 0 len;
              []
          | Some last ->
              Buffer.add_subbytes c.input buf 0 last;
              let data = Buffer.contents c.input in
              Buffer.clear c.input;
              Buffer.add_subbytes c.input buf (last + 1) (len - last - 1);
              lines_of data
        in
        if Buffer.length c.input > max_unterminated then begin
          Buffer.reset c.input;
          c.eof <- true;
          send c too_long_line
        end;
        lines
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
        close c;
        []
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        []

let flush c =
  (try
     while c.alive && c.sent < c.queued do
       c.sent <- c.sent + Unix.single_write c.fd c.out c.sent (c.queued - c.sent)
     done
   with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> close c);
  if flushed c then begin
    c.sent <- 0;
    c.queued <- 0
  end

let drain ~until conns =
  let rec go () =
    List.iter flush conns;
    let busy = List.filter (fun c -> not (flushed c)) conns in
    let left_ms = int_of_float (ceil ((until -. Unix.gettimeofday ()) *. 1000.)) in
    if busy <> [] && left_ms > 0 then begin
      ignore
        (Poll.wait ~timeout_ms:left_ms
           (Array.of_list
              (List.map (fun c -> (c.fd, { Poll.read = false; write = true })) busy)));
      go ()
    end
  in
  go ();
  List.iter close conns
