(* Chunks are sketched inline, on the feeding domain, as each one fills:
   chunk boundaries are sample-index arithmetic only, so the emitted
   sketch sequence is the same for every jobs count and every batching
   of [feed] calls. The engine's pool is not used. Once a chunk costs
   O(chunk) — about 4 µs at the `dut stream` defaults — a trip through
   the pool costs more than it saves, and on 2 vCPUs it was slower for
   every config measured, AMS with K = 1024 counters included (see
   doc/stream.md). *)

type t = {
  cfg : Sketch.config;
  chunk : int;
  on_chunk : Sketch.t -> unit;
  buf : int array;  (* the pending partial chunk *)
  mutable sketch : Sketch.t option;
      (* the one chunk sketch, reused; made at the first emission *)
  mutable len : int;  (* pending samples in [buf] *)
  mutable fed : int;
  mutable emitted : int;
  mutable flushed : bool;
}

let create ?jobs ~chunk ~on_chunk cfg =
  if chunk < 1 then invalid_arg "Ingest.create: chunk < 1";
  (match jobs with
  | Some j when j < 1 -> invalid_arg "Ingest.create: jobs < 1"
  | _ -> ());
  {
    cfg;
    chunk;
    on_chunk;
    buf = Array.make chunk 0;
    sketch = None;
    len = 0;
    fed = 0;
    emitted = 0;
    flushed = false;
  }

(* Time every chunk sketched, full and partial tail alike: one histogram
   observation per on_chunk emission. *)
let h_chunk_ns = Dut_obs.Metrics.histogram "ingest.chunk_ns"

let emit t =
  let sk =
    match t.sketch with
    | Some sk -> sk
    | None ->
        let sk = Sketch.create t.cfg in
        t.sketch <- Some sk;
        sk
  in
  let started = Dut_obs.Span.now_ns () in
  Sketch.clear sk;
  Sketch.add_range sk t.buf ~lo:0 ~hi:t.len;
  Dut_obs.Metrics.observe h_chunk_ns (Dut_obs.Span.now_ns () - started);
  t.len <- 0;
  t.emitted <- t.emitted + 1;
  t.on_chunk sk

let feed t x =
  if t.flushed && t.fed mod t.chunk <> 0 then
    invalid_arg "Ingest.feed: stream already flushed mid-chunk";
  t.flushed <- false;
  t.buf.(t.len) <- x;
  t.len <- t.len + 1;
  t.fed <- t.fed + 1;
  if t.len = t.chunk then emit t

let feed_array t xs = Array.iter (feed t) xs

let flush t =
  if not t.flushed then begin
    if t.len > 0 then emit t;
    t.flushed <- true
  end

let samples_fed t = t.fed

let chunks_emitted t = t.emitted
