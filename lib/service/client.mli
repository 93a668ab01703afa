(** The [dut query] side of the wire: send a batch of query lines to a
    running server and print the responses in request order.

    The client owns request ids: input line [i] (blank lines skipped)
    becomes the request with [id = i], and the output is exactly one
    response line per input line, ordered by id — so replaying the same
    batch file always produces the same bytes, which is what the CI
    smoke diffs. Lines that fail to parse client-side are answered
    locally with an [error] response (never sent), mirroring the
    server's isolation semantics.

    A duplicate response for an already-filled id is a counted
    ([service.duplicate_responses]), logged no-op — it can neither
    overwrite the first answer nor end the wait early. *)

val run :
  ?timeout_s:float -> socket:string -> out:out_channel -> string list -> int
(** [run ~socket ~out lines] sends every non-blank line, waits for all
    responses, prints them to [out] in id order, and returns the exit
    code: [0] when every response has [status "ok"], [1] when any
    response is an error, [2] when the server cannot be reached, closes
    the connection early, or — with [timeout_s] — fails to answer every
    id before the deadline (after printing a diagnostic to stderr).
    Sending and receiving interleave over one {!Conn}, so the deadline
    bounds the whole exchange, a server that stops reading included.
    Without [timeout_s] the exchange is unbounded; on expiry every
    unanswered slot is filled with the
    [{"status":"error","error":"no response received"}] payload so the
    output still carries one line per input line. *)
