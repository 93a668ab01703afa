(** A synchronous message-passing simulator (the LOCAL model).

    Computation proceeds in lock-step rounds. In each round every node
    reads the messages delivered to it (sent in the previous round),
    updates its state, and emits messages to neighbors; messages to
    non-neighbors are rejected. This is the standard LOCAL model —
    unbounded message size, synchronous rounds — which is what [7]
    reduces to the simultaneous model and Section 6.2 prices in
    sampling-rate terms. *)

type 'msg outbox = (int * 'msg) list
(** Messages to send this round, as (neighbor, payload) pairs. *)

type ('state, 'msg) node_logic = {
  init : int -> Dut_prng.Rng.t -> 'state;
      (** [init node coins] — state before round 0; [coins] is the
          node's private stream for the whole execution. *)
  step :
    round:int ->
    node:int ->
    Dut_prng.Rng.t ->
    'state ->
    'msg list ->
    'state * 'msg outbox;
      (** one synchronous round: inbox is every message addressed to
          this node in the previous round (sender order unspecified). *)
}

val run :
  graph:Graph.t ->
  rng:Dut_prng.Rng.t ->
  rounds:int ->
  logic:('state, 'msg) node_logic ->
  'state array * int
(** Execute [rounds] rounds and return the final states and the number
    of messages delivered. Each node's private stream is split
    deterministically from [rng], so executions are reproducible.

    @raise Invalid_argument if [rounds < 0] or a node addresses a
    non-neighbor. *)
