(** The service's typed query language and its JSONL wire codec.

    Three query kinds, mirroring what the batch CLI can compute:

    - [Bound]: a closed-form bound from {!Dut_core.Bounds}, looked up by
      name with named numeric parameters — pure arithmetic, no
      randomness.
    - [Power]: one {!Dut_core.Evaluate.succeeds} verdict for a tester at
      a fixed per-player sample count [q].
    - [Critical]: the least succeeding [q]
      ({!Dut_core.Evaluate.critical_q}), warm-started through
      {!Dut_stats.Critical.search_seeded} when a [guess] rides along.

    Every source of randomness is part of the query ([seed], [trials],
    [adaptive]), so a query {e is} its answer's full provenance: equal
    canonical forms give byte-equal responses, for any jobs count — the
    property the memo cache and the determinism contract rest on.

    Wire format (one JSON object per line; see [doc/service.md]):

    {v
    {"id":0,"kind":"bound","name":"thm11_lower",
     "params":{"n":4096,"k":64,"eps":0.25}}
    {"id":1,"kind":"power","tester":"threshold","t":4,"ell":7,
     "eps":0.3,"k":32,"q":24,"trials":120,"level":0.72,"seed":2019}
    {"id":2,"kind":"critical","tester":"and","ell":7,"eps":0.3,"k":32,
     "guess":48}
    {"id":3,"kind":"power","tester":"graph","family":"bipartite","t":1,
     "ell":5,"eps":0.4,"k":16,"q":40}
    v}

    Responses repeat the request [id] and carry either
    [{"status":"ok","value":…}] or [{"status":"error","error":…}]. *)

type graph_family = Clique | Matching | Bipartite | Regular of int
    (** Comparison-graph families servable over the wire. [Regular d]
        requires an even [d] (odd degrees constrain q's parity, which a
        critical-q bisection cannot honour); its graph seed is fixed at
        1, so equal canonical queries always name the same graph. *)

type tester =
  | And
  | Threshold of int  (** reject threshold [t] *)
  | Graph of { family : graph_family; t : int }
      (** {!Dut_core.Comparison_graph.tester_fixed} over [family] with
          reject threshold [t] (wire default 1). *)

type t =
  | Bound of { name : string; params : (string * float) list }
      (** [params] is kept sorted by name: the constructor set is the
          canonical form. *)
  | Power of {
      tester : tester;
      ell : int;
      eps : float;
      k : int;
      q : int;
      trials : int;
      level : float;
      seed : int;
      adaptive : bool;
    }
  | Critical of {
      tester : tester;
      ell : int;
      eps : float;
      k : int;
      trials : int;
      level : float;
      seed : int;
      adaptive : bool;
      hi : int option;
      guess : int option;  (** warm start for {!Dut_stats.Critical.search_seeded} *)
    }

val to_json : t -> Dut_obs.Json.t
(** Canonical rendering: fixed field order, defaults spelled out,
    [params] sorted — two equal queries always serialise to the same
    bytes. Never includes a request [id]. *)

val of_json : Dut_obs.Json.t -> (t, string) result
(** Parse a request object (ignoring any [id] member). Unknown [kind]s,
    missing or non-positive parameters and unknown testers are [Error]s
    describing the offending field. *)

val canonical : t -> string
(** [Dut_obs.Json.to_string (to_json q)] — the text the memo key is
    hashed from. *)

val eval : t -> Dut_obs.Json.t
(** Compute the answer: a number for [Bound], a boolean for [Power], a
    number or [Null] (not found below [hi]) for [Critical]. All
    randomness derives from the query's own [seed], so the result is
    independent of jobs count, batching, and evaluation order.

    @raise Failure on an unknown bound name or missing parameter. *)

(* -- Requests and responses --------------------------------------------- *)

type request = { id : int; query : (t, string) result }
(** One parsed wire line. A line that fails to parse still yields a
    request (with the parse error as its [query]) so the server can
    answer it with an error response instead of dropping it. *)

val request_of_line : string -> request
(** Parse one JSONL request line. A missing or non-numeric [id] becomes
    [-1] (the response will carry [-1] back, flagging the bug to the
    client). *)

val request_to_line : id:int -> t -> string
(** The canonical request line for [t] with [id] prepended — what the
    client sends. *)

val ok_payload : Dut_obs.Json.t -> string
(** [{"status":"ok","value":V}] — the id-less response payload, the unit
    the memo cache stores. *)

val error_payload : string -> string
(** [{"status":"error","error":msg}]. *)

val response_line : id:int -> string -> string
(** Splice the request id into an id-less payload:
    [{"id":N,"status":…}]. The payload bytes are embedded verbatim, so
    cached and fresh payloads yield byte-identical response lines. *)
