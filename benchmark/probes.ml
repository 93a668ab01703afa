(* Per-call cost of the kernels and of every layer above them, timed in
   isolation after a workload's timed part (traced runs only), so that
   every traced run times every layer whichever ones its workload
   reaches. Each probe repeats its call in doubling batches until
   [budget_s] has passed, inside a [bench.probe.<name>] span. *)

module J = Dut_obs.Json

(* Time and minor-heap words per call. *)
let per_call ~budget_s name f =
  Dut_obs.Span.with_ ~name:("bench.probe." ^ name) (fun () ->
      f ();
      let w0 = Gc.minor_words () and t0 = Meas.now_ns () in
      let calls = ref 0 and batch = ref 1 in
      while !calls = 0 || Meas.seconds_since t0 < budget_s do
        for _ = 1 to !batch do
          f ()
        done;
        calls := !calls + !batch;
        batch := min (2 * !batch) 65536
      done;
      let n = float_of_int !calls in
      (float_of_int (Meas.now_ns () - t0) /. n, (Gc.minor_words () -. w0) /. n))

(* probe.<name>_<unit>: the time per call in [unit_] ([scale] ns each). *)
let timed ~budget_s unit_ scale (name, f) =
  let ns, _ = per_call ~budget_s name f in
  ("probe." ^ name ^ "_" ^ unit_, unit_, ns /. scale)

let kernels ~budget_s =
  let rng = Dut_prng.Rng.create 2019 in
  let weights = Array.init 256 (fun i -> float_of_int (1 + (i land 15))) in
  let total = Array.fold_left ( +. ) 0. weights in
  let sampler =
    Dut_dist.Sampler.of_pmf
      (Dut_dist.Pmf.create (Array.map (fun w -> w /. total) weights))
  in
  let draws = Array.make 4096 0 in
  let hard = Dut_dist.Paninski.random ~ell:7 ~eps:0.3 rng in
  let samples = Dut_dist.Paninski.draw_many hard rng 64 in
  let source = Dut_protocol.Network.of_paninski hard in
  let player ~index:_ _coins samples =
    let ones = ref 0 in
    Array.iter (fun s -> ones := !ones + (s land 1)) samples;
    2 * !ones <= Array.length samples
  in
  let local =
    Dut_netsim.Local_tester.make ~graph:(Dut_netsim.Graph.grid 6 6) ~n:256
      ~eps:0.3 ~q:64 ~calibration_trials:50 ~rng:(Dut_prng.Rng.split rng)
  in
  let acceptor = Dut_core.Exact.collision_acceptor ~ell:2 ~q:3 ~cutoff:1 in
  let small = Dut_dist.Paninski.random ~ell:2 ~eps:0.3 rng in
  [
    ("draw_block", fun () -> Dut_dist.Sampler.draw_block sampler rng draws);
    ( "collisions_bounded",
      fun () ->
        ignore
          (Sys.opaque_identity
             (Dut_core.Local_stat.collisions_bounded ~n:256 samples)) );
    ( "round_accept",
      fun () ->
        ignore
          (Dut_protocol.Network.round_accept ~rng:(Dut_prng.Rng.split rng)
             ~source ~k:32 ~q:64 ~player ~rule:Dut_protocol.Rule.Majority) );
    ( "local_tester_run",
      fun () ->
        ignore
          (Dut_netsim.Local_tester.run local (Dut_prng.Rng.split rng) source) );
    ("exact_nu", fun () -> ignore (Dut_core.Exact.nu acceptor small));
  ]
  |> List.concat_map (fun (name, f) ->
         let ns, words = per_call ~budget_s name f in
         [
           ("probe." ^ name ^ "_ns", "ns", ns);
           ("probe." ^ name ^ "_words", "words", words);
         ])

(* [summary_bytes] is what a server rewrites after every batch. *)
let layers ~budget_s ~work ~stream_config ~summary_bytes =
  let eval line =
    match Dut_service.Query.of_json (J.parse line) with
    | Ok q -> fun () -> ignore (Dut_service.Query.eval q)
    | Error msg -> failwith msg
  in
  let cfg = Dut_experiments.Config.make ~jobs:1 Dut_experiments.Config.Fast in
  let experiment = Option.get (Dut_experiments.Registry.find "F1-lemma51") in
  let run_out = Filename.concat work "probe-run.txt" in
  let run_experiment () =
    Out_channel.with_open_bin run_out (fun oc ->
        ignore
          (Dut_experiments.Runner.run_to_channel ~timings:false cfg experiment oc))
  in
  let referee = Dut_stream.Anytime.create ~eps:0.25 stream_config in
  let n = Dut_stream.Sketch.universe stream_config in
  let samples = Array.init 256 (fun i -> i * 2654435761 land (n - 1)) in
  let chunk () =
    let sk = Dut_stream.Sketch.create stream_config in
    Array.iter (Dut_stream.Sketch.add sk) samples;
    ignore (Dut_stream.Anytime.observe referee sk)
  in
  let line =
    {|{"id":7,"kind":"power","tester":"threshold","t":4,"ell":7,"eps":0.3,"k":32,"q":24,"trials":120,"seed":2019}|}
  in
  let payload = Dut_service.Query.ok_payload (J.Bool true) in
  let codec () =
    let r = Dut_service.Query.request_of_line line in
    match r.Dut_service.Query.query with
    | Ok q ->
        ignore (Sys.opaque_identity (Dut_service.Query.canonical q));
        ignore
          (Sys.opaque_identity
             (Dut_service.Query.response_line ~id:r.Dut_service.Query.id payload))
    | Error msg -> failwith msg
  in
  (* The first call misses and fills the memory tier; the rest hit. *)
  let cache = Dut_service.Memo.create () in
  let batch =
    [|
      Dut_service.Query.request_of_line
        {|{"id":0,"kind":"bound","name":"centralized","params":{"n":4096,"eps":0.25}}|};
    |]
  in
  let hit () = ignore (Dut_service.Server.handle_batch ~cache ~jobs:1 batch) in
  let memo_dir = Meas.fresh_dir (Filename.concat work "probe-memo") in
  Dut_service.Memo.store
    (Dut_service.Memo.create ~dir:(Some memo_dir) ())
    ~key:"probe" payload;
  (* A fresh front each call, so every lookup reads the disk tier. *)
  let disk_load () =
    ignore
      (Dut_service.Memo.find
         (Dut_service.Memo.create ~dir:(Some memo_dir) ())
         ~key:"probe")
  in
  let summary = Filename.concat work "probe-summary.json" in
  let write () = Dut_obs.Manifest.write_atomic ~path:summary summary_bytes in
  List.map (timed ~budget_s "ms" 1e6)
    [
      ("run_experiment", run_experiment);
      ( "power_eval",
        eval
          {|{"kind":"power","tester":"threshold","t":3,"ell":5,"eps":0.4,"k":16,"q":48,"seed":2019}|}
      );
      ( "critical_eval",
        eval
          {|{"kind":"critical","tester":"and","ell":4,"eps":0.5,"k":8,"seed":2019,"hi":512}|}
      );
    ]
  @ List.map (timed ~budget_s "us" 1e3)
      [
        ("chunk", chunk);
        ("codec", codec);
        ("handle_batch_hit", hit);
        ("memo_disk_load", disk_load);
        ("summary_write", write);
      ]
