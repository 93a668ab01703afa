(* T21-stream: streaming, memory-bounded uniformity testing.

   Two measurements, both against the paper's hard family:

   1. The anytime referee: k players each ingest a per-round chunk of
      samples into a budgeted sketch, the referee merges the round's
      player sketches and emits an eps-spending checkpoint verdict.
      Reported per (sketch, budget): final-verdict power on both
      sides, the anytime (stop-early) detection rate on far streams
      for growing and sliding windows, and the mean stopping round.

   2. The memory/sample tradeoff: the critical stream length q* at
      which the budgeted sketch's batch-rule verdict reaches the
      success level, via the same critical-search machinery as
      T5-centralized — so the exact-budget row IS the batch collision
      tester's critical q, and the sub-linear budgets chart what the
      lost resolution costs in samples (theory: q* ~ n/sqrt(B), the
      communication/memory tradeoff shape of Diakonikolas-Gouleakis-
      Kane-Rao 2019). *)

module Sketch = Dut_stream.Sketch
module Anytime = Dut_stream.Anytime

let sketch_seed = 77

(* Draw [q] samples from [source] through the incremental engine fold:
   fixed chunk boundaries, one child RNG per chunk, and the chunk
   sketches merged in place in chunk order, as the referee merges the
   chunks of `dut stream`. *)
let sketch_stream ?jobs ~rng ~chunk ~q ~cfg_sk source =
  Dut_engine.Parallel.fold_chunks ?jobs ~rng ~n:q ~chunk
    ~f:(fun rng ~lo ~hi ->
      let sk = Sketch.create cfg_sk in
      for _ = lo to hi - 1 do
        Sketch.add sk (source rng)
      done;
      sk)
    ~init:(Sketch.create cfg_sk)
    ~merge:(fun acc sk ->
      Sketch.merge_into ~into:acc sk;
      acc)

let stream_tester ~cfg_sk ~chunk ~eps ~q : Dut_core.Evaluate.tester =
 fun rng source ->
  Sketch.accepts (sketch_stream ~rng ~chunk ~q ~cfg_sk source) ~eps

type trial = {
  final_accept : bool;
  grow_rejected : bool;
  slide_rejected : bool;
  reject_round : int;  (* first rejecting checkpoint; 0 = never *)
}

(* One full streamed protocol round: k players, [rounds] chunks each,
   referees observing the merged per-round sketch. *)
let run_trial ~rng ~k ~rounds ~chunk ~eps ~slide_w ~cfg_sk source =
  let grow = Anytime.create ~window:Anytime.Growing ~eps cfg_sk in
  let slide = Anytime.create ~window:(Anytime.Sliding slide_w) ~eps cfg_sk in
  let prngs = Dut_prng.Rng.split_n rng k in
  (* One player sketch and one round sketch, cleared and merged into in
     place every round: the referees keep what they need of a round. *)
  let sk = Sketch.create cfg_sk and round_sk = Sketch.create cfg_sk in
  for _ = 1 to rounds do
    Sketch.clear round_sk;
    for p = 0 to k - 1 do
      Sketch.clear sk;
      for _ = 1 to chunk do
        Sketch.add sk (source prngs.(p))
      done;
      Sketch.merge_into ~into:round_sk sk
    done;
    ignore (Anytime.observe grow round_sk);
    ignore (Anytime.observe slide round_sk)
  done;
  {
    final_accept = not (Anytime.final grow).Anytime.reject;
    grow_rejected = Anytime.rejected grow <> None;
    slide_rejected = Anytime.rejected slide <> None;
    reject_round =
      (match Anytime.rejected grow with
      | Some v -> v.Anytime.index
      | None -> 0);
  }

let anytime_row (cfg : Config.t) ~rng ~ell ~eps ~k ~rounds ~chunk ~slide_w
    ~kind ~budget =
  let n = 1 lsl (ell + 1) in
  let cfg_sk = Sketch.config ~kind ~n ~budget_words:budget ~seed:sketch_seed in
  let trials = cfg.trials in
  let run_side source_of =
    Dut_engine.Parallel.init ~jobs:cfg.jobs ~rng:(Dut_prng.Rng.split rng)
      ~n:trials (fun rng _ ->
        run_trial ~rng ~k ~rounds ~chunk ~eps ~slide_w ~cfg_sk (source_of rng))
  in
  let uniform = run_side (fun _ -> Dut_protocol.Network.uniform_source ~n) in
  let far =
    run_side (fun rng ->
        Dut_protocol.Network.of_paninski (Dut_dist.Paninski.random ~ell ~eps rng))
  in
  let frac pred a =
    float_of_int (Array.fold_left (fun c t -> if pred t then c + 1 else c) 0 a)
    /. float_of_int (Array.length a)
  in
  let mean_reject_round =
    let rejecting = Array.to_list far |> List.filter (fun t -> t.reject_round > 0) in
    match rejecting with
    | [] -> Float.nan
    | l ->
        List.fold_left (fun acc t -> acc +. float_of_int t.reject_round) 0. l
        /. float_of_int (List.length l)
  in
  let words = Sketch.words_used (Sketch.create cfg_sk) in
  [
    Table.Str (Sketch.kind_to_string kind);
    Table.Int budget;
    Table.Int words;
    Table.Bool (Sketch.is_exact cfg_sk);
    Table.Float (frac (fun t -> t.final_accept) uniform);
    Table.Float (frac (fun t -> not t.final_accept) far);
    Table.Float (frac (fun t -> t.grow_rejected) uniform);
    Table.Float (frac (fun t -> t.grow_rejected) far);
    Table.Float (frac (fun t -> t.slide_rejected) far);
    Table.Float mean_reject_round;
  ]

let run (cfg : Config.t) =
  let rng = Config.rng cfg in
  let ell, eps, k, rounds, chunk, slide_w =
    (* Per-player round size is what powers the anytime stop: the
       eps-spending slack and the eps-far excess both grow ~ j^2 on a
       growing window, so their ratio is set once by (chunk * k) —
       roughly chunk*k > 23*j*sqrt(n/2)/eps^2 per checkpoint j is
       needed for the Chebyshev threshold to ever fire. *)
    match cfg.profile with
    | Config.Fast -> (5, 0.3, 4, 8, 384, 4)
    | Config.Full -> (7, 0.25, 8, 8, 512, 4)
  in
  let n = 1 lsl (ell + 1) in
  let hist_budgets, ams_budgets =
    match cfg.profile with
    | Config.Fast -> ([ Sketch.exact_budget ~n; 40; 24; 16 ], [ 40; 24; 16 ])
    | Config.Full -> ([ Sketch.exact_budget ~n; 136; 72; 40; 24 ], [ 72; 40; 24 ])
  in
  let anytime_rows =
    List.concat_map
      (fun (kind, budgets) ->
        List.map
          (fun budget ->
            anytime_row cfg ~rng:(Dut_prng.Rng.split rng) ~ell ~eps ~k ~rounds
              ~chunk ~slide_w ~kind ~budget)
          budgets)
      [ (Sketch.Hist, hist_budgets); (Sketch.Ams, ams_budgets) ]
  in
  (* -- memory/sample tradeoff: critical stream length per budget ------- *)
  let critical_for ~kind ~budget ~guess =
    let cfg_sk = Sketch.config ~kind ~n ~budget_words:budget ~seed:sketch_seed in
    let b = float_of_int (Sketch.buckets cfg_sk) in
    let hi =
      max 256
        (int_of_float
           (32. *. float_of_int n /. (sqrt b *. eps *. eps)))
    in
    let qstar =
      Dut_core.Evaluate.critical_q ~adaptive:cfg.adaptive ~trials:cfg.trials
        ~level:cfg.level ~rng:(Dut_prng.Rng.split rng) ~ell ~eps ~hi
        ?guess:(if cfg.warm_start then guess else None)
        (fun q -> stream_tester ~cfg_sk ~chunk ~eps ~q)
    in
    (cfg_sk, qstar)
  in
  let tradeoff kind budgets =
    let prev = ref None in
    List.map
      (fun budget ->
        let guess =
          match !prev with
          | Some (b0, q0) ->
              (* q* ~ B^(-1/2): scale the previous point's critical
                 length by the bucket-count ratio. *)
              Some
                (max 1
                   (int_of_float
                      (Float.round
                         (float_of_int q0 *. sqrt (float_of_int b0 /. float_of_int budget)))))
          | None -> None
        in
        let cfg_sk, qstar = critical_for ~kind ~budget ~guess in
        (match qstar with
        | Some q -> prev := Some (budget, q)
        | None -> ());
        (kind, budget, cfg_sk, qstar))
      budgets
  in
  let trade_rows = tradeoff Sketch.Hist hist_budgets @ tradeoff Sketch.Ams ams_budgets in
  let batch_q =
    List.find_map
      (fun (kind, _, cfg_sk, qstar) ->
        if kind = Sketch.Hist && Sketch.is_exact cfg_sk then qstar else None)
      trade_rows
  in
  let trade_table_rows =
    List.map
      (fun (kind, budget, cfg_sk, qstar) ->
        let words = Sketch.words_used (Sketch.create cfg_sk) in
        [
          Table.Str (Sketch.kind_to_string kind);
          Table.Int budget;
          Table.Int words;
          Table.Int (Sketch.buckets cfg_sk);
          Table.Bool (Sketch.is_exact cfg_sk);
          (match qstar with Some q -> Table.Int q | None -> Table.Str "not found");
          (match (qstar, batch_q) with
          | Some q, Some b -> Table.Float (float_of_int q /. float_of_int b)
          | _ -> Table.Str "-");
        ])
      trade_rows
  in
  let hist_fit =
    let pts =
      List.filter_map
        (fun (kind, _, cfg_sk, qstar) ->
          match qstar with
          | Some q when kind = Sketch.Hist && not (Sketch.is_exact cfg_sk) ->
              Some (float_of_int (Sketch.buckets cfg_sk), float_of_int q)
          | _ -> None)
        trade_rows
    in
    if List.length pts >= 2 then
      Dut_stats.Fit.power_law_exponent (Array.of_list pts)
    else Float.nan
  in
  [
    Table.make
      ~title:
        (Printf.sprintf
           "T21-stream: anytime verdicts, %d players x %d rounds of %d (n=%d, eps=%.2f)"
           k rounds chunk n eps)
      ~columns:
        [
          "sketch"; "budget"; "words used"; "exact"; "uniform accept";
          "far reject"; "false stop"; "anytime reject";
          Printf.sprintf "sliding(%d) reject" slide_w; "mean stop round";
        ]
      ~notes:
        [
          "final verdict = batch midpoint rule on the full stream; anytime = \
           eps-spending stop (alpha=0.05); false stop = anytime rejections \
           on uniform streams (validity: stays below alpha)";
          "words used is measured (Sketch.words_used), never exceeds the budget";
        ]
      anytime_rows;
    Table.make
      ~title:
        (Printf.sprintf
           "T21-stream: critical stream length vs per-player memory (n=%d, eps=%.2f)"
           n eps)
      ~columns:
        [ "sketch"; "budget"; "words used"; "buckets"; "exact"; "q*"; "q*/batch" ]
      ~notes:
        [
          "exact-budget row = the batch collision tester's critical q \
           (T5-centralized machinery)";
          Printf.sprintf
            "fitted exponent of q* in buckets (hashed hist rows): %.3f (theory -0.5)"
            hist_fit;
        ]
      trade_table_rows;
  ]

let experiment =
  {
    Exp.id = "T21-stream";
    title = "Streaming, memory-bounded testing";
    statement =
      "Memory-limited streaming testers (after Diakonikolas-Gouleakis-Kane-Rao \
       2019): bounded sketches trade per-player words for stream length as q* \
       ~ n/sqrt(B), and eps-spending checkpoints give anytime-valid verdicts";
    run;
  }
