(** Undirected graphs for the LOCAL-model experiments.

    The paper's reference [7] reduces uniformity testing in the LOCAL
    network model to the simultaneous-message model: sample locally,
    aggregate votes over a spanning tree, broadcast the verdict. The
    aggregation cost is a function of the topology only, so this module
    provides the topologies the T13 experiment sweeps, plus the BFS
    machinery the reduction needs. Nodes are integers 0 .. n−1. *)

type t

val create : int -> (int * int) list -> t
(** [create n edges] builds a graph on [n] nodes. Self-loops and
    duplicate edges are rejected.

    @raise Invalid_argument if [n <= 0], an endpoint is out of range, an
    edge is a self-loop, or an edge repeats. *)

val n : t -> int
(** Number of nodes. *)

val edge_count : t -> int

val neighbors : t -> int -> int list
(** Adjacent nodes, ascending.

    @raise Invalid_argument if the node is out of range. *)

val degree : t -> int -> int

val mem_edge : t -> int -> int -> bool

(* Standard topologies. All require n >= 1 and raise Invalid_argument
   otherwise. *)

val path : int -> t
(** 0 − 1 − 2 − … − (n−1): diameter n−1, the worst case for
    aggregation. *)

val cycle : int -> t
(** A ring (needs n ≥ 3). *)

val star : int -> t
(** Node 0 adjacent to all others: diameter 2. *)

val complete : int -> t
(** Diameter 1, the simultaneous model's implicit topology. *)

val grid : int -> int -> t
(** [grid rows cols]: the rows×cols mesh. *)

val binary_tree : int -> t
(** The complete binary tree shape on n nodes (node i's children are
    2i+1, 2i+2): depth ⌊lg n⌋. *)

val random_connected : Dut_prng.Rng.t -> n:int -> extra_edges:int -> t
(** A random connected graph: a uniform random spanning tree (random
    attachment) plus [extra_edges] additional random non-duplicate
    edges. *)

val bfs : t -> root:int -> int array * int array
(** [bfs g ~root] is [(dist, parent)]: hop distances from the root
    ([max_int] for unreachable nodes) and BFS parents ([-1] for the root
    and unreachable nodes). *)

val is_connected : t -> bool

val diameter : t -> int
(** The largest BFS distance between two nodes (exact, O(n·(n+m))).

    @raise Invalid_argument on a disconnected graph. *)
