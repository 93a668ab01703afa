(* Counters are dense ids into per-domain int tables. The registry —
   name <-> id, the list of every per-domain table ever created, the
   gauge map — is guarded by one mutex; it is touched only on first
   use of a name or a domain, and at snapshot/reset. The increment hot
   path is one DLS get plus one plain array write on the calling
   domain's own table, so concurrent pool tasks never contend.

   Snapshot sums plain (non-atomic) fields written by other domains.
   That is deliberate: the harness aggregates only at quiescent points
   (after a pool join, at the end of a run), where every write is
   published by the join's synchronisation. Mid-flight snapshots would
   merely be stale, never corrupt — OCaml's memory model keeps racy
   int reads well-defined. *)

let lock = Mutex.create ()

type counter = int

let counter_names : string list ref = ref []  (* newest first; length = count *)

let counter_ids : (string, int) Hashtbl.t = Hashtbl.create 32

let n_counters = Atomic.make 0

(* Every per-domain table ever created, kept forever: worker domains die
   on pool resize/shutdown and their tallies must survive them. *)
let tables : int array ref list ref = ref []

let table_key =
  Domain.DLS.new_key (fun () ->
      let t = ref [||] in
      Mutex.lock lock;
      tables := t :: !tables;
      Mutex.unlock lock;
      t)

let counter name =
  Mutex.lock lock;
  let id =
    match Hashtbl.find_opt counter_ids name with
    | Some id -> id
    | None ->
        let id = Atomic.get n_counters in
        Hashtbl.add counter_ids name id;
        counter_names := name :: !counter_names;
        Atomic.set n_counters (id + 1);
        id
  in
  Mutex.unlock lock;
  id

let add c n =
  let t = Domain.DLS.get table_key in
  let a = !t in
  if c < Array.length a then a.(c) <- a.(c) + n
  else begin
    let grown = Array.make (max (c + 1) (Atomic.get n_counters)) 0 in
    Array.blit a 0 grown 0 (Array.length a);
    grown.(c) <- n;
    t := grown
  end

let incr c = add c 1

type gauge = float Atomic.t

let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 8

let gauge name =
  Mutex.lock lock;
  let g =
    match Hashtbl.find_opt gauges name with
    | Some g -> g
    | None ->
        let g = Atomic.make 0. in
        Hashtbl.add gauges name g;
        g
  in
  Mutex.unlock lock;
  g

let set_gauge g v = Atomic.set g v

(* Histograms mirror the counter layout exactly: dense ids, one table
   per domain kept forever, registry under the same lock. The per-domain
   slot is an [Histogram.t option] created lazily on the first
   observation, so registering a histogram costs nothing on domains that
   never record into it. *)

type hist = int

let hist_names : string list ref = ref []  (* newest first *)

let hist_ids : (string, int) Hashtbl.t = Hashtbl.create 8

let n_hists = Atomic.make 0

let hist_tables : Histogram.t option array ref list ref = ref []

let hist_table_key =
  Domain.DLS.new_key (fun () ->
      let t = ref [||] in
      Mutex.lock lock;
      hist_tables := t :: !hist_tables;
      Mutex.unlock lock;
      t)

let histogram name =
  Mutex.lock lock;
  let id =
    match Hashtbl.find_opt hist_ids name with
    | Some id -> id
    | None ->
        let id = Atomic.get n_hists in
        Hashtbl.add hist_ids name id;
        hist_names := name :: !hist_names;
        Atomic.set n_hists (id + 1);
        id
  in
  Mutex.unlock lock;
  id

let observe h v =
  let t = Domain.DLS.get hist_table_key in
  let a = !t in
  if h < Array.length a then
    match a.(h) with
    | Some hg -> Histogram.record hg v
    | None ->
        let hg = Histogram.create () in
        a.(h) <- Some hg;
        Histogram.record hg v
  else begin
    let grown = Array.make (max (h + 1) (Atomic.get n_hists)) None in
    Array.blit a 0 grown 0 (Array.length a);
    let hg = Histogram.create () in
    grown.(h) <- Some hg;
    Histogram.record hg v;
    t := grown
  end

type value = Count of int | Value of float

let sum_counter_locked id =
  List.fold_left
    (fun acc t ->
      let a = !t in
      if id < Array.length a then acc + a.(id) else acc)
    0 !tables

let snapshot () =
  Mutex.lock lock;
  let counters =
    List.rev_map
      (fun name ->
        (name, Count (sum_counter_locked (Hashtbl.find counter_ids name))))
      !counter_names
  in
  let gs = Hashtbl.fold (fun name g acc -> (name, Value (Atomic.get g)) :: acc) gauges [] in
  Mutex.unlock lock;
  List.sort (fun (a, _) (b, _) -> String.compare a b) (counters @ gs)

let value name =
  Mutex.lock lock;
  let v =
    match Hashtbl.find_opt counter_ids name with
    | Some id -> sum_counter_locked id
    | None -> 0
  in
  Mutex.unlock lock;
  v

let merge_hist_locked id =
  let acc = Histogram.create () in
  List.iter
    (fun t ->
      let a = !t in
      if id < Array.length a then
        match a.(id) with
        | Some hg -> Histogram.merge_into ~into:acc hg
        | None -> ())
    !hist_tables;
  acc

let histogram_snapshot () =
  Mutex.lock lock;
  let hs =
    List.rev_map
      (fun name ->
        (name, Histogram.compact (merge_hist_locked (Hashtbl.find hist_ids name))))
      !hist_names
  in
  Mutex.unlock lock;
  List.sort (fun (a, _) (b, _) -> String.compare a b) hs

let histogram_value name =
  Mutex.lock lock;
  let h =
    match Hashtbl.find_opt hist_ids name with
    | Some id -> merge_hist_locked id
    | None -> Histogram.create ()
  in
  Mutex.unlock lock;
  h

let reset () =
  Mutex.lock lock;
  List.iter (fun t -> Array.fill !t 0 (Array.length !t) 0) !tables;
  List.iter
    (fun t ->
      Array.iter (function Some hg -> Histogram.clear hg | None -> ()) !t)
    !hist_tables;
  Hashtbl.iter (fun _ g -> Atomic.set g 0.) gauges;
  Mutex.unlock lock

let dump oc =
  let snap = snapshot () in
  let hists = histogram_snapshot () in
  let width =
    List.fold_left (fun w (name, _) -> max w (String.length name)) 0 snap
  in
  let width =
    List.fold_left (fun w (name, _) -> max w (String.length name)) width hists
  in
  List.iter
    (fun (name, v) ->
      match v with
      | Count c -> Printf.fprintf oc "%-*s %d\n" width name c
      | Value f -> Printf.fprintf oc "%-*s %g\n" width name f)
    snap;
  List.iter
    (fun (name, h) ->
      if not (Histogram.is_empty h) then
        Printf.fprintf oc "%-*s count=%d p50=%d p90=%d p95=%d p99=%d max<=%d\n"
          width name (Histogram.count h)
          (Histogram.q_or_zero h 0.5)
          (Histogram.q_or_zero h 0.9)
          (Histogram.q_or_zero h 0.95)
          (Histogram.q_or_zero h 0.99)
          (match Histogram.max_value h with Some v -> v | None -> 0))
    hists;
  flush oc
