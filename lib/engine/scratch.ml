(* Per-domain scratch arenas. Every structure here lives in domain-local
   storage: no locks, no sharing, and — because pool tasks never migrate
   between domains mid-task — no interference between concurrent trials.
   Reuse never changes a computed value, only where intermediate words
   live, so the engine's determinism contract is untouched. *)

(* Arena telemetry: total borrows vs free-list hits gives the reuse
   rate per run (hits/borrows -> 1.0 once the arenas are warm). *)
let m_borrows = Dut_obs.Metrics.counter "scratch.borrows"

let m_reuse_hits = Dut_obs.Metrics.counter "scratch.reuse_hits"

type arena = {
  free : (int, int array list ref) Hashtbl.t;
      (* exact length -> free list of released buffers *)
  free_floats : (int, float array list ref) Hashtbl.t;
      (* the same arena for float slabs (flat, unboxed storage) *)
  mutable counts : int array;  (* histogram counts, valid where stamped *)
  mutable stamp : int array;  (* generation stamp per histogram cell *)
  mutable gen : int;  (* current histogram generation *)
}

let arena_key =
  Domain.DLS.new_key (fun () ->
      {
        free = Hashtbl.create 16;
        free_floats = Hashtbl.create 16;
        counts = [||];
        stamp = [||];
        gen = 0;
      })

let arena () = Domain.DLS.get arena_key

let borrow ~len =
  if len < 0 then invalid_arg "Scratch.borrow: len < 0";
  if len = 0 then [||]
  else begin
    Dut_obs.Metrics.incr m_borrows;
    let a = arena () in
    (* [Hashtbl.find] + exception, not [find_opt]: the option would be
       one small allocation per borrow, i.e. per protocol round. *)
    match Hashtbl.find a.free len with
    | { contents = buf :: rest } as cell ->
        cell := rest;
        Dut_obs.Metrics.incr m_reuse_hits;
        buf
    | { contents = [] } | (exception Not_found) -> Array.make len 0
  end

let release buf =
  let len = Array.length buf in
  if len > 0 then begin
    let a = arena () in
    match Hashtbl.find a.free len with
    | cell -> cell := buf :: !cell
    | exception Not_found -> Hashtbl.add a.free len (ref [ buf ])
  end

let borrow_floats ~len =
  if len < 0 then invalid_arg "Scratch.borrow_floats: len < 0";
  if len = 0 then [||]
  else begin
    Dut_obs.Metrics.incr m_borrows;
    let a = arena () in
    match Hashtbl.find a.free_floats len with
    | { contents = buf :: rest } as cell ->
        cell := rest;
        Dut_obs.Metrics.incr m_reuse_hits;
        buf
    | { contents = [] } | (exception Not_found) -> Array.make len 0.
  end

let release_floats buf =
  let len = Array.length buf in
  if len > 0 then begin
    let a = arena () in
    match Hashtbl.find a.free_floats len with
    | cell -> cell := buf :: !cell
    | exception Not_found -> Hashtbl.add a.free_floats len (ref [ buf ])
  end

type hist = arena

let hist ~size =
  if size <= 0 then invalid_arg "Scratch.hist: size <= 0";
  let a = arena () in
  if Array.length a.counts < size then begin
    (* Grow once; stale stamps are impossible because the fresh stamp
       array starts below any generation ever issued. *)
    a.counts <- Array.make size 0;
    a.stamp <- Array.make size (-1)
  end;
  a.gen <- a.gen + 1;
  a

let bump h v =
  let c = if h.stamp.(v) = h.gen then h.counts.(v) + 1 else 1 in
  h.counts.(v) <- c;
  h.stamp.(v) <- h.gen;
  c

let count h v = if h.stamp.(v) = h.gen then h.counts.(v) else 0
