(** Thin poll(2) binding for the service event loops.

    [Unix.select] is limited to FD_SETSIZE (1024 on Linux) descriptors
    — a few hundred concurrent clients of a fleet blow past it. poll
    carries no such cap, so the server, the router and the client all
    wait on this instead. The runtime lock is released for the duration of the
    blocking call; EINTR reads as "nothing ready" so a SIGINT lands at
    the loop's [Runner.interrupted] check. *)

type interest = { read : bool; write : bool }

val rd : interest
(** Readable only, as a listener is polled; a connection's interest
    comes from {!Conn.interest}. *)

val wait : timeout_ms:int -> (Unix.file_descr * interest) array -> interest array
(** [wait ~timeout_ms entries] polls every descriptor for its declared
    interest and returns per-entry readiness, index-aligned with the
    input. Hangups and errors report as readable (the subsequent read
    returns 0 or raises, which is how the caller learns). A timeout or
    EINTR returns all-false readiness. [timeout_ms < 0] blocks
    indefinitely. *)
