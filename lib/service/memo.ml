let default_dir = Filename.concat "results" "memo"

let m_hits = Dut_obs.Metrics.counter "cache.hits"

let m_misses = Dut_obs.Metrics.counter "cache.misses"

let m_stores = Dut_obs.Metrics.counter "cache.stores"

let m_evictions = Dut_obs.Metrics.counter "cache.evictions"

(* Lookup and persist latency, hit or miss: the cost of asking the
   cache is what a caller pays either way, and the disk tier dominating
   p99 is exactly what these exist to make visible. *)
let h_load_ns = Dut_obs.Metrics.histogram "memo.load_ns"

let h_store_ns = Dut_obs.Metrics.histogram "memo.store_ns"

type entry = { payload : string; mutable last_use : int }

type t = {
  capacity : int;
  dir : string option;
  table : (string, entry) Hashtbl.t;  (* key text -> entry *)
  mutable clock : int;  (* bumped per touch; orders LRU eviction *)
}

let create ?(capacity = 512) ?(dir = None) () =
  if capacity < 1 then invalid_arg "Memo.create: capacity < 1";
  { capacity; dir; table = Hashtbl.create 64; clock = 0 }

let entries t = Hashtbl.length t.table

let touch t e =
  t.clock <- t.clock + 1;
  e.last_use <- t.clock

(* Eviction scans for the least-recently-used key: O(entries), but only
   on overflow of a front that is small by construction — correctness
   never depends on what gets evicted (the disk tier still holds it). *)
let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
        match acc with
        | Some (_, best) when best <= e.last_use -> acc
        | _ -> Some (key, e.last_use))
      t.table None
  in
  match victim with
  | Some (key, _) ->
      Hashtbl.remove t.table key;
      Dut_obs.Metrics.incr m_evictions
  | None -> ()

let put_front t ~key payload =
  if not (Hashtbl.mem t.table key) then begin
    if Hashtbl.length t.table >= t.capacity then evict_lru t;
    let e = { payload; last_use = 0 } in
    touch t e;
    Hashtbl.add t.table key e
  end

(* -- Public API --------------------------------------------------------- *)

let find t ~key =
  let started = Dut_obs.Span.now_ns () in
  let result =
    match Hashtbl.find_opt t.table key with
    | Some e ->
        touch t e;
        Dut_obs.Metrics.incr m_hits;
        Some e.payload
    | None -> (
        match Option.bind t.dir (fun dir -> Dut_obs.Store.find ~dir ~key) with
        | Some payload ->
            put_front t ~key payload;
            Dut_obs.Metrics.incr m_hits;
            Some payload
        | None ->
            Dut_obs.Metrics.incr m_misses;
            None)
  in
  Dut_obs.Metrics.observe h_load_ns (Dut_obs.Span.now_ns () - started);
  result

let store t ~key payload =
  let started = Dut_obs.Span.now_ns () in
  Dut_obs.Metrics.incr m_stores;
  put_front t ~key payload;
  Option.iter (fun dir -> Dut_obs.Store.store ~dir ~key payload) t.dir;
  Dut_obs.Metrics.observe h_store_ns (Dut_obs.Span.now_ns () - started)
