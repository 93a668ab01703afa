(** One non-blocking Unix-socket connection: the transport under the
    server loop ({!Server.serve}), the fleet router
    ({!Shard.serve_fleet}) and the client ({!Client.run}).

    Input is framed into lines: {!read} makes one read(2) and returns
    the complete, non-blank lines it finished. At EOF the unterminated
    tail still counts, so a peer that half-closes right after its last
    byte gets every answer. Output is a queue: {!send} appends a line,
    {!flush} writes as much as the peer takes without blocking, and the
    rest waits for a poll(2) wake-up on {!interest}. A peer that stops
    reading therefore costs memory for its own queued lines, never a
    stalled loop. ECONNRESET on a read, and EPIPE or ECONNRESET on a
    write, close the connection. *)

type t

val connect : string -> t
(** Connect to the Unix-domain socket at a path and make the
    connection non-blocking.

    @raise Unix.Unix_error as connect(2) does (the socket is closed
    first). *)

val accept_all : Unix.file_descr -> t list
(** Accept every connection pending on a non-blocking listener, in
    arrival order, each made non-blocking. *)

val fd : t -> Unix.file_descr

val alive : t -> bool
(** [false] once closed, by {!close} or by a vanished peer. *)

val eof : t -> bool
(** The peer has half-closed: no more input will come. *)

val flushed : t -> bool
(** No output is left to write (a closed connection has none). *)

val interest : t -> Poll.interest
(** What to poll for: readable until EOF, writable while output is
    queued. *)

val read : t -> string list
(** One read(2): the complete non-blank lines it finished, without
    their newlines, in order. At EOF the non-blank unterminated tail is
    the last line. A read that would block returns []. *)

val send : t -> string -> unit
(** Queue a line; the newline is appended. A no-op once closed. *)

val flush : t -> unit
(** Write queued output until it is all written or the peer's buffer
    is full. *)

val close : t -> unit
(** Close the descriptor and drop queued output. Idempotent. *)

val drain : until:float -> t list -> unit
(** Flush until every queued line is written, each peer is gone, or
    the clock ([Unix.gettimeofday]) passes [until]; then close all. *)
