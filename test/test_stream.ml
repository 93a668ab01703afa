(* Tests for Dut_stream and the engine's incremental fold: sketch merge
   laws (exact associativity/commutativity — the property parallel
   chunking and player merging rely on — and in-place merging in both
   the log and the histogram representation), measured memory
   accounting, byte-identical verdict streams across jobs counts and
   against digests recorded before merges went in place, the running
   sliding window against a re-merge of its chunks, sliding/growing
   agreement on stationary streams, the anytime-final == batch-verdict
   contract on exact sketches, the stream path's steady-state
   allocation, and fold_chunks determinism plus its per-chunk deadline
   granularity. *)

module Sketch = Dut_stream.Sketch
module Ingest = Dut_stream.Ingest
module Anytime = Dut_stream.Anytime
module Parallel = Dut_engine.Parallel
module Rng = Dut_prng.Rng

let feed_all sk xs = Array.iter (Sketch.add sk) xs

let sketch_of cfg xs =
  let sk = Sketch.create cfg in
  feed_all sk xs;
  sk

(* -- qcheck generators --------------------------------------------------- *)

let config_gen =
  QCheck.Gen.(
    let* n = int_range 2 128 in
    let* kind = oneofl [ Sketch.Hist; Sketch.Ams ] in
    let* budget = int_range (Sketch.header_words + 1) (n + Sketch.header_words)
    in
    let* seed = int_range 0 1000 in
    return (Sketch.config ~kind ~n ~budget_words:budget ~seed, n, budget))

let stream_gen n = QCheck.Gen.(array_size (int_range 0 200) (int_range 0 (n - 1)))

let merge_input =
  QCheck.make
    QCheck.Gen.(
      let* cfg, n, budget = config_gen in
      let* a = stream_gen n in
      let* b = stream_gen n in
      let* c = stream_gen n in
      return (cfg, budget, a, b, c))
    ~print:(fun (cfg, budget, a, b, c) ->
      Printf.sprintf "kind=%s n=%d budget=%d |a|=%d |b|=%d |c|=%d"
        (Sketch.kind_to_string (Sketch.kind_of cfg))
        (Sketch.universe cfg) budget (Array.length a) (Array.length b)
        (Array.length c))

let prop_merge_commutative =
  QCheck.Test.make ~name:"merge commutative" ~count:200 merge_input
    (fun (cfg, _, a, b, _) ->
      let sa = sketch_of cfg a and sb = sketch_of cfg b in
      Sketch.equal (Sketch.merge sa sb) (Sketch.merge sb sa))

let prop_merge_associative =
  QCheck.Test.make ~name:"merge associative" ~count:200 merge_input
    (fun (cfg, _, a, b, c) ->
      let sa = sketch_of cfg a and sb = sketch_of cfg b and sc = sketch_of cfg c in
      let left = Sketch.merge (Sketch.merge sa sb) sc in
      let right = Sketch.merge sa (Sketch.merge sb sc) in
      Sketch.equal left right
      && String.equal (Sketch.fingerprint left) (Sketch.fingerprint right))

let prop_merge_is_concat =
  QCheck.Test.make ~name:"merge = sketch of concatenated stream" ~count:200
    merge_input (fun (cfg, _, a, b, _) ->
      let merged = Sketch.merge (sketch_of cfg a) (sketch_of cfg b) in
      Sketch.equal merged (sketch_of cfg (Array.append a b)))

(* Streams from empty to twice the bucket count, so that both the
   sketch merged into and the one merged are seen as a log (at most
   [buckets] samples) and as a histogram; [into] first holds and
   clears a stream, so a cleared array is reused too. *)
let merge_into_input =
  QCheck.make
    QCheck.Gen.(
      let* cfg, n, _ = config_gen in
      let len = int_range 0 ((2 * Sketch.buckets cfg) + 1) in
      let* stale = array_size len (int_range 0 (n - 1)) in
      let* a = array_size len (int_range 0 (n - 1)) in
      let* b = array_size len (int_range 0 (n - 1)) in
      return (cfg, stale, a, b))
    ~print:(fun (cfg, stale, a, b) ->
      Printf.sprintf "kind=%s n=%d buckets=%d |stale|=%d |a|=%d |b|=%d"
        (Sketch.kind_to_string (Sketch.kind_of cfg))
        (Sketch.universe cfg) (Sketch.buckets cfg) (Array.length stale)
        (Array.length a) (Array.length b))

(* Every statistic, compared bit for bit. *)
let same_stats x y =
  let bits f = Int64.bits_of_float (f x) = Int64.bits_of_float (f y) in
  bits Sketch.collision_stat && bits Sketch.excess && bits Sketch.null_sd
  && bits Sketch.decision_stat
  && bits (fun sk -> Sketch.cutoff sk ~eps:0.3)

let prop_merge_into_is_concat =
  QCheck.Test.make ~name:"merge_into = sketch of concatenated stream"
    ~count:300 merge_into_input (fun (cfg, stale, a, b) ->
      let into = sketch_of cfg stale in
      Sketch.clear into;
      feed_all into a;
      Sketch.merge_into ~into (sketch_of cfg b);
      let whole = sketch_of cfg (Array.append a b) in
      Sketch.equal into whole
      && String.equal (Sketch.fingerprint into) (Sketch.fingerprint whole)
      && same_stats into whole)

let prop_words_within_budget =
  QCheck.Test.make ~name:"words_used never exceeds budget" ~count:200
    merge_input (fun (cfg, budget, a, b, _) ->
      let sa = sketch_of cfg a and sb = sketch_of cfg b in
      Sketch.words_used sa <= budget
      && Sketch.words_used (Sketch.merge sa sb) <= budget)

(* The bound on fixed configurations beyond the generator's n <= 128:
   the budget ladder at n = 256 (exact histogram, hashed 72 and 24, AMS
   40 and 16) and the [dut stream] default (n = 4096, exact histogram),
   on every chunk sketch of an ingest and on their merge. *)
let test_words_within_budget_fixed () =
  List.iter
    (fun (kind, n, budget) ->
      let cfg = Sketch.config ~kind ~n ~budget_words:budget ~seed:2019 in
      let chunks = ref [] in
      let ing =
        Ingest.create ~jobs:1 ~chunk:1024
          ~on_chunk:(fun sk -> chunks := Sketch.copy sk :: !chunks)
          cfg
      in
      let rng = Rng.create n in
      Ingest.feed_array ing (Array.init 4096 (fun _ -> Rng.int rng n));
      Ingest.flush ing;
      let merged = List.fold_left Sketch.merge (Sketch.create cfg) !chunks in
      List.iter
        (fun sk ->
          if Sketch.words_used sk > budget then
            Alcotest.failf "%s n=%d: %d words exceed the budget of %d"
              (Sketch.kind_to_string kind) n (Sketch.words_used sk) budget)
        (merged :: !chunks))
    [
      (Sketch.Hist, 256, Sketch.exact_budget ~n:256);
      (Sketch.Hist, 256, 72);
      (Sketch.Hist, 256, 24);
      (Sketch.Ams, 256, 40);
      (Sketch.Ams, 256, 16);
      (Sketch.Hist, 4096, Sketch.exact_budget ~n:4096);
    ]

(* -- config edges -------------------------------------------------------- *)

let test_config_validation () =
  (match
     Sketch.config ~kind:Sketch.Hist ~n:8 ~budget_words:Sketch.header_words
       ~seed:1
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "budget <= header accepted");
  (match Sketch.config ~kind:Sketch.Ams ~n:0 ~budget_words:64 ~seed:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "n = 0 accepted");
  let exact =
    Sketch.config ~kind:Sketch.Hist ~n:16 ~budget_words:(Sketch.exact_budget ~n:16)
      ~seed:1
  in
  Alcotest.(check bool) "exact at exact_budget" true (Sketch.is_exact exact);
  (* Extra budget beyond the domain buys nothing for a histogram. *)
  let over =
    Sketch.config ~kind:Sketch.Hist ~n:16 ~budget_words:500 ~seed:1
  in
  Alcotest.(check int) "buckets capped at n" 16 (Sketch.buckets over);
  let hashed = Sketch.config ~kind:Sketch.Hist ~n:64 ~budget_words:24 ~seed:1 in
  Alcotest.(check bool) "hashed not exact" false (Sketch.is_exact hashed);
  (* Differently-configured sketches must not merge. *)
  let other = Sketch.config ~kind:Sketch.Hist ~n:64 ~budget_words:24 ~seed:2 in
  match Sketch.merge (Sketch.create hashed) (Sketch.create other) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "cross-config merge accepted"

let test_excess_centering () =
  (* The centered statistic has exactly zero null mean; spot-check that
     it is small (in null-sd units) on actual uniform streams for every
     kind, and large on a constant stream. *)
  let rng = Rng.create 7 in
  List.iter
    (fun (kind, budget) ->
      let cfg = Sketch.config ~kind ~n:64 ~budget_words:budget ~seed:5 in
      let sk = Sketch.create cfg in
      for _ = 1 to 4096 do
        Sketch.add sk (Rng.int rng 64)
      done;
      let z = Sketch.excess sk /. Sketch.null_sd sk in
      if Float.abs z > 6. then
        Alcotest.failf "%s budget %d: uniform excess %.1f null-sds off"
          (Sketch.kind_to_string kind) budget z;
      let const = Sketch.create cfg in
      for _ = 1 to 4096 do
        Sketch.add const 3
      done;
      Alcotest.(check bool)
        (Sketch.kind_to_string kind ^ " rejects constant stream")
        false
        (Sketch.accepts const ~eps:0.3))
    [ (Sketch.Hist, Sketch.exact_budget ~n:64); (Sketch.Hist, 24); (Sketch.Ams, 24) ]

(* -- ingest -------------------------------------------------------------- *)

let test_ingest_chunking () =
  let cfg = Sketch.config ~kind:Sketch.Hist ~n:32 ~budget_words:24 ~seed:3 in
  let emitted = ref [] in
  let ing =
    Ingest.create ~jobs:1 ~chunk:16
      ~on_chunk:(fun sk -> emitted := Sketch.copy sk :: !emitted)
      cfg
  in
  let rng = Rng.create 11 in
  let xs = Array.init 100 (fun _ -> Rng.int rng 32) in
  Array.iter (Ingest.feed ing) xs;
  Ingest.flush ing;
  Ingest.flush ing (* idempotent *);
  let emitted = List.rev !emitted in
  Alcotest.(check int) "samples_fed" 100 (Ingest.samples_fed ing);
  Alcotest.(check int) "chunks: 6 full + 1 partial" 7 (List.length emitted);
  Alcotest.(check (list int)) "chunk sizes"
    [ 16; 16; 16; 16; 16; 16; 4 ]
    (List.map Sketch.count emitted);
  (* The emitted sketches reassemble the whole stream exactly. *)
  let cum =
    List.fold_left Sketch.merge (Sketch.create cfg) emitted
  in
  Alcotest.(check string) "reassembles the stream"
    (Sketch.fingerprint (sketch_of cfg xs))
    (Sketch.fingerprint cum);
  (* Feeding after a partial-chunk flush would misalign boundaries. *)
  match Ingest.feed ing 0 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "feed after partial flush accepted"

let verdicts_with ~jobs xs =
  let cfg = Sketch.config ~kind:Sketch.Hist ~n:64 ~budget_words:40 ~seed:9 in
  let referee = Anytime.create ~window:(Anytime.Sliding 3) ~eps:0.3 cfg in
  let ing =
    Ingest.create ~jobs ~chunk:64
      ~on_chunk:(fun sk -> ignore (Anytime.observe referee sk))
      cfg
  in
  Array.iter (Ingest.feed ing) xs;
  Ingest.flush ing;
  (Anytime.verdicts referee, Sketch.fingerprint (Anytime.cumulative referee))

let test_verdicts_jobs_invariant () =
  let rng = Rng.create 13 in
  let xs = Array.init 2000 (fun _ -> Rng.int rng 64) in
  let v1, f1 = verdicts_with ~jobs:1 xs in
  let v4, f4 = verdicts_with ~jobs:4 xs in
  Alcotest.(check string) "cumulative sketch bit-identical" f1 f4;
  Alcotest.(check bool) "verdict stream identical" true (v1 = v4);
  Alcotest.(check int) "checkpoints emitted" ((2000 + 63) / 64) (List.length v1)

(* -- anytime ------------------------------------------------------------- *)

let test_sliding_growing_agree_stationary () =
  let n = 64 in
  let cfg =
    Sketch.config ~kind:Sketch.Hist ~n ~budget_words:(Sketch.exact_budget ~n)
      ~seed:21
  in
  let run source_rng source =
    let grow = Anytime.create ~window:Anytime.Growing ~eps:0.3 cfg in
    let slide = Anytime.create ~window:(Anytime.Sliding 3) ~eps:0.3 cfg in
    for _ = 1 to 6 do
      let sk = Sketch.create cfg in
      for _ = 1 to 2048 do
        Sketch.add sk (source source_rng)
      done;
      ignore (Anytime.observe grow sk);
      ignore (Anytime.observe slide sk)
    done;
    (Anytime.rejected grow, Anytime.rejected slide)
  in
  (* Stationary uniform: neither window ever stops (anytime validity). *)
  let g, s = run (Rng.create 31) (fun rng -> Rng.int rng n) in
  Alcotest.(check bool) "uniform: growing never stops" true (g = None);
  Alcotest.(check bool) "uniform: sliding never stops" true (s = None);
  (* Stationary far (constant stream): both stop, at the same checkpoint. *)
  let g, s = run (Rng.create 32) (fun _ -> 5) in
  (match (g, s) with
  | Some gv, Some sv ->
      Alcotest.(check int) "same stopping checkpoint" gv.Anytime.index
        sv.Anytime.index
  | _ -> Alcotest.fail "constant stream not rejected by both windows")

let test_anytime_matches_batch () =
  (* On a fully-consumed stream with an exact sketch, the referee's
     final verdict IS the batch collision tester's — across uniform,
     hard-family and constant streams, any chunking. *)
  let rng = Rng.create 41 in
  let cases = ref 0 in
  for trial = 1 to 60 do
    let ell = 2 + (trial mod 4) in
    let n = 1 lsl (ell + 1) in
    let eps = 0.25 +. (0.05 *. float_of_int (trial mod 3)) in
    let q = 50 + (97 * trial mod 400) in
    let source =
      match trial mod 3 with
      | 0 -> fun rng -> Rng.int rng n
      | 1 ->
          let hard = Dut_dist.Paninski.random ~ell ~eps rng in
          Dut_protocol.Network.of_paninski hard
      | _ -> fun _ -> trial mod n
    in
    let src_rng = Rng.create (1000 + trial) in
    let xs = Array.init q (fun _ -> source src_rng) in
    let cfg =
      Sketch.config ~kind:Sketch.Hist ~n ~budget_words:(Sketch.exact_budget ~n)
        ~seed:trial
    in
    let referee = Anytime.create ~eps cfg in
    let ing =
      Ingest.create ~jobs:1 ~chunk:(7 + (trial mod 50))
        ~on_chunk:(fun sk -> ignore (Anytime.observe referee sk))
        cfg
    in
    Array.iter (Ingest.feed ing) xs;
    Ingest.flush ing;
    let final = Anytime.final referee in
    let batch_accepts = Dut_testers.Collision.test ~n ~eps xs in
    if final.Anytime.reject = batch_accepts then
      Alcotest.failf
        "trial %d (n=%d eps=%.2f q=%d): final reject=%b but batch accept=%b"
        trial n eps q final.Anytime.reject batch_accepts;
    incr cases
  done;
  Alcotest.(check int) "all cases compared" 60 !cases

let window_input =
  QCheck.make
    QCheck.Gen.(
      let* cfg, n, _ = config_gen in
      let* w = int_range 1 5 in
      let* chunks =
        list_size (int_range 1 12)
          (array_size
             (int_range 0 ((2 * Sketch.buckets cfg) + 1))
             (int_range 0 (n - 1)))
      in
      return (cfg, w, chunks))
    ~print:(fun (cfg, w, chunks) ->
      Printf.sprintf "kind=%s n=%d buckets=%d w=%d chunks=[%s]"
        (Sketch.kind_to_string (Sketch.kind_of cfg))
        (Sketch.universe cfg) (Sketch.buckets cfg) w
        (String.concat ";"
           (List.map (fun c -> string_of_int (Array.length c)) chunks)))

(* After every chunk, the running sliding window equals the merge of
   its last [w] chunks, and its verdict is computed from exactly that
   sketch. *)
let prop_sliding_window_is_remerge =
  QCheck.Test.make ~name:"sliding window = re-merge of last w chunks"
    ~count:200 window_input (fun (cfg, w, chunks) ->
      let referee = Anytime.create ~window:(Anytime.Sliding w) ~eps:0.3 cfg in
      let chunk = Sketch.create cfg in
      let rec go seen = function
        | [] -> true
        | xs :: rest ->
            (* One reused chunk sketch, as Ingest hands them out. *)
            Sketch.clear chunk;
            feed_all chunk xs;
            let v = Option.get (Anytime.observe referee chunk) in
            let seen = xs :: seen in
            let last = List.filteri (fun i _ -> i < w) seen in
            let remerged =
              List.fold_left
                (fun acc xs -> Sketch.merge (sketch_of cfg xs) acc)
                (Sketch.create cfg) last
            in
            let win = Anytime.window_sketch referee in
            Sketch.equal win remerged
            && String.equal (Sketch.fingerprint win)
                 (Sketch.fingerprint remerged)
            && same_stats win remerged
            && Int64.bits_of_float v.Anytime.stat
               = Int64.bits_of_float (Sketch.excess remerged)
            && v.Anytime.window_samples = Sketch.count remerged
            && go seen rest
      in
      go [] chunks)

(* -- pinned verdict bits -------------------------------------------------- *)

(* One fixed stream per universe: uniform, then 20 chunks drawn from a
   sixteenth of the domain (far from uniform), then uniform again, and
   a 100-sample partial chunk. *)
let pinned_stream n =
  let rng = Rng.create 2019 in
  Array.init ((64 * 256) + 100) (fun i ->
      let c = i / 256 in
      if c >= 30 && c < 50 then Rng.int rng (n / 16) else Rng.int rng n)

(* MD5 of the verdict stream with every float as %h — its bits, not six
   digits — ending with the final verdict. *)
let verdict_digest ~kind ~n ~budget ~window ~jobs =
  let cfg = Sketch.config ~kind ~n ~budget_words:budget ~seed:2019 in
  let referee = Anytime.create ~window ~eps:0.25 cfg in
  let ing =
    Ingest.create ~jobs ~chunk:256
      ~on_chunk:(fun sk -> ignore (Anytime.observe referee sk))
      cfg
  in
  Ingest.feed_array ing (pinned_stream n);
  Ingest.flush ing;
  let line (v : Anytime.verdict) =
    Printf.sprintf "%d %d %d %h %h %b %h" v.index v.samples_seen
      v.window_samples v.stat v.threshold v.reject v.alpha_spent
  in
  Anytime.verdicts referee @ [ Anytime.final referee ]
  |> List.map line |> String.concat "\n" |> Digest.string |> Digest.to_hex

(* The modes the run-all goldens do not cover. The digests were recorded
   while merges still built fresh sketches and sliding windows re-merged
   their chunks at every checkpoint, so they pin the in-place merges,
   the incremental collision count and the running window to that
   arithmetic, bit for bit. *)
let test_pinned_verdict_bits () =
  List.iter
    (fun (name, kind, n, budget, window, digest) ->
      List.iter
        (fun jobs ->
          Alcotest.(check string)
            (Printf.sprintf "%s, jobs %d" name jobs)
            digest
            (verdict_digest ~kind ~n ~budget ~window ~jobs))
        [ 1; 2 ])
    [
      ( "exact n=4096 growing", Sketch.Hist, 4096, Sketch.exact_budget ~n:4096,
        Anytime.Growing, "f29c2d33ca3ef22deea4843ca3814591" );
      ( "exact n=4096 sliding 8", Sketch.Hist, 4096,
        Sketch.exact_budget ~n:4096, Anytime.Sliding 8,
        "8a530b1e79a5d236fba32a75a4e524fd" );
      ( "hashed n=256 budget 40 sliding 3", Sketch.Hist, 256, 40,
        Anytime.Sliding 3, "e80f2a944893814a6a65d1b90a8274ed" );
      ( "ams n=256 budget 40 growing", Sketch.Ams, 256, 40, Anytime.Growing,
        "06f33ebbf8517acdf46072fc2f3cfadb" );
      ( "ams n=256 budget 40 sliding 3", Sketch.Ams, 256, 40,
        Anytime.Sliding 3, "023a8442a38867eb9d3d425bbb7e65bd" );
    ]

(* -- steady-state allocation ---------------------------------------------- *)

(* Words allocated per chunk on the stream path once it is warm: minor
   words plus the words allocated straight into the major heap (major
   minus promoted) — a bucket-sized array of 4096 words is too large
   for the minor heap, so [Gc.minor_words] alone would not see one. *)
let words_per_chunk window =
  let n = 4096 and chunk = 256 and block = 16_384 in
  let cfg =
    Sketch.config ~kind:Sketch.Hist ~n ~budget_words:(Sketch.exact_budget ~n)
      ~seed:2019
  in
  let referee = Anytime.create ~window ~eps:0.25 cfg in
  let ing =
    Ingest.create ~jobs:2 ~chunk
      ~on_chunk:(fun sk -> ignore (Anytime.observe referee sk))
      cfg
  in
  let rng = Rng.create 2019 in
  let blocks = Array.init 17 (fun _ -> Array.init block (fun _ -> Rng.int rng n)) in
  Ingest.feed_array ing blocks.(0);
  let s0 = Gc.quick_stat () and minor0 = Gc.minor_words () in
  for b = 1 to 16 do
    Ingest.feed_array ing blocks.(b)
  done;
  let minor1 = Gc.minor_words () and s1 = Gc.quick_stat () in
  let direct s = s.Gc.major_words -. s.Gc.promoted_words in
  let chunks = 16 * block / chunk in
  (minor1 -. minor0 +. direct s1 -. direct s0) /. float_of_int chunks

(* About 30 words per chunk are the checkpoint's verdict (a record, its
   three boxed floats, the option and the list cell the referee keeps)
   and the ingest clock and histogram. A cap of 100 leaves room for
   that to move, and fails at once if any per-chunk bucket-sized
   array (4096 words) comes back. *)
let words_per_chunk_cap = 100.

let test_steady_state_allocation () =
  List.iter
    (fun window ->
      let words = words_per_chunk window in
      Printf.printf "%-10s %8.1f words/chunk (cap %.0f)\n%!"
        (Anytime.window_to_string window)
        words words_per_chunk_cap;
      if words > words_per_chunk_cap then
        Alcotest.failf "%s window: %.1f words per chunk exceed the cap of %.0f"
          (Anytime.window_to_string window)
          words words_per_chunk_cap)
    [ Anytime.Growing; Anytime.Sliding 8 ]

(* -- fold_chunks --------------------------------------------------------- *)

let test_fold_chunks_deterministic () =
  (* Per-chunk RNG pre-splitting and index-ordered merging: the fold is
     bit-identical for every jobs count, including RNG-dependent chunk
     results and a non-commutative merge. *)
  let run ~jobs =
    Parallel.fold_chunks ~jobs ~rng:(Rng.create 2019) ~n:1000 ~chunk:64
      ~f:(fun rng ~lo ~hi ->
        let acc = ref 0 in
        for i = lo to hi - 1 do
          acc := !acc + (i * Rng.int rng 1000)
        done;
        [ !acc ])
      ~init:[] ~merge:(fun acc part -> acc @ part)
  in
  let a = run ~jobs:1 and b = run ~jobs:4 in
  Alcotest.(check (list int)) "jobs 1 = jobs 4" a b;
  Alcotest.(check int) "one part per chunk" ((1000 + 63) / 64) (List.length a)

let test_fold_chunks_edges () =
  let const_f _ ~lo ~hi = hi - lo in
  let total ~n ~chunk =
    Parallel.fold_chunks ~jobs:2 ~rng:(Rng.create 1) ~n ~chunk ~f:const_f
      ~init:0 ~merge:( + )
  in
  Alcotest.(check int) "empty fold" 0 (total ~n:0 ~chunk:8);
  Alcotest.(check int) "single short chunk" 5 (total ~n:5 ~chunk:8);
  Alcotest.(check int) "exact multiple" 64 (total ~n:64 ~chunk:8);
  (match total ~n:(-1) ~chunk:8 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "n < 0 accepted");
  match total ~n:8 ~chunk:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "chunk < 1 accepted"

let test_fold_chunks_deadline_per_chunk () =
  (* The sequential fallback checks the deadline once per chunk — the
     same granularity as the pooled path — so an expiry mid-stream
     cancels at the next chunk boundary: completed chunks are whole,
     later chunks never start. *)
  let elements = ref [] in
  let spin_past () =
    let t0 = Unix.gettimeofday () in
    while Unix.gettimeofday () -. t0 < 2e-3 do
      ()
    done
  in
  Alcotest.check_raises "expiry noticed at a chunk boundary"
    Dut_engine.Deadline.Exceeded (fun () ->
      Dut_engine.Deadline.with_timeout ~seconds:1e-3 (fun () ->
          ignore
            (Parallel.fold_chunks ~jobs:1 ~rng:(Rng.create 1) ~n:9 ~chunk:3
               ~f:(fun _ ~lo ~hi ->
                 for i = lo to hi - 1 do
                   elements := i :: !elements
                 done;
                 if lo = 3 then spin_past ();
                 0)
               ~init:0 ~merge:( + ))));
  Alcotest.(check (list int)) "whole chunks only, none after expiry"
    [ 0; 1; 2; 3; 4; 5 ]
    (List.sort compare !elements)

let () =
  Alcotest.run "dut_stream"
    [
      ( "sketch laws",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_merge_commutative; prop_merge_associative;
            prop_merge_is_concat; prop_words_within_budget;
            prop_merge_into_is_concat;
          ] );
      ( "sketch",
        [
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "words within budget on fixed configs" `Quick
            test_words_within_budget_fixed;
          Alcotest.test_case "excess centering" `Quick test_excess_centering;
        ] );
      ( "ingest",
        [
          Alcotest.test_case "chunking and flush" `Quick test_ingest_chunking;
          Alcotest.test_case "verdicts jobs-invariant" `Quick
            test_verdicts_jobs_invariant;
        ] );
      ( "anytime",
        [
          Alcotest.test_case "sliding/growing agree on stationary" `Quick
            test_sliding_growing_agree_stationary;
          Alcotest.test_case "final matches batch tester" `Quick
            test_anytime_matches_batch;
          QCheck_alcotest.to_alcotest prop_sliding_window_is_remerge;
          Alcotest.test_case "pinned verdict bits" `Quick
            test_pinned_verdict_bits;
          Alcotest.test_case "steady-state words per chunk" `Quick
            test_steady_state_allocation;
        ] );
      ( "fold_chunks",
        [
          Alcotest.test_case "deterministic across jobs" `Quick
            test_fold_chunks_deterministic;
          Alcotest.test_case "edge cases" `Quick test_fold_chunks_edges;
          Alcotest.test_case "deadline per chunk" `Quick
            test_fold_chunks_deadline_per_chunk;
        ] );
    ]
