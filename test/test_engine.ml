(* Tests for Dut_engine: pool lifecycle, the index-ordered seed-splitting
   determinism contract of the parallel combinators, and jobs-invariance
   of the Monte-Carlo and runner paths built on them. *)

open Dut_engine

(* -- Pool -------------------------------------------------------------- *)

let test_pool_runs_every_task () =
  let p = Pool.create ~jobs:4 in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
  let hits = Array.make 1000 0 in
  Pool.run p ~tasks:1000 (fun i -> hits.(i) <- hits.(i) + 1);
  Alcotest.(check (array int)) "each index exactly once" (Array.make 1000 1) hits

let test_pool_create_teardown_no_leak () =
  (* OCaml caps live domains at a small fixed limit (128 in 5.1): if
     shutdown failed to join its workers, repeatedly creating pools
     would exhaust the limit and Domain.spawn would raise. *)
  for _ = 1 to 100 do
    let p = Pool.create ~jobs:3 in
    let total = Atomic.make 0 in
    Pool.run p ~tasks:64 (fun i -> ignore (Atomic.fetch_and_add total i));
    Alcotest.(check int) "sum of indices" (64 * 63 / 2) (Atomic.get total);
    Pool.shutdown p
  done

let test_pool_shutdown_idempotent_and_blocks_run () =
  let p = Pool.create ~jobs:2 in
  Pool.shutdown p;
  Pool.shutdown p;
  Alcotest.check_raises "run after shutdown"
    (Invalid_argument "Pool.run: pool is shut down") (fun () ->
      Pool.run p ~tasks:1 (fun _ -> ()))

let test_pool_create_bounds () =
  Alcotest.check_raises "jobs < 1" (Invalid_argument "Pool.create: jobs < 1")
    (fun () -> ignore (Pool.create ~jobs:0));
  Alcotest.check_raises "jobs > domain limit"
    (Invalid_argument
       (Printf.sprintf "Pool.create: jobs > %d (OCaml's domain limit)"
          Pool.max_jobs)) (fun () ->
      ignore (Pool.create ~jobs:(Pool.max_jobs + 1)))

let test_pool_propagates_exception () =
  let p = Pool.create ~jobs:3 in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
  Alcotest.check_raises "first failure re-raised" (Failure "task 7") (fun () ->
      Pool.run p ~tasks:16 (fun i -> if i = 7 then failwith "task 7"));
  (* The pool survives a failed job. *)
  let count = Atomic.make 0 in
  Pool.run p ~tasks:8 (fun _ -> ignore (Atomic.fetch_and_add count 1));
  Alcotest.(check int) "pool usable after failure" 8 (Atomic.get count)

let test_pool_nested_run_is_inline () =
  let p = Pool.create ~jobs:2 in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
  let inner_flags = Array.make 4 false in
  Pool.run p ~tasks:4 (fun i ->
      Alcotest.(check bool) "in_task inside a task" true (Pool.in_task ());
      (* A nested submission to the same pool must not deadlock. *)
      Pool.run p ~tasks:2 (fun _ -> inner_flags.(i) <- true));
  Alcotest.(check (array bool)) "nested tasks ran" (Array.make 4 true) inner_flags;
  Alcotest.(check bool) "flag cleared outside" false (Pool.in_task ())

(* -- Parallel: determinism contract ------------------------------------ *)

let test_map_matches_array_map () =
  let a = Array.init 1001 (fun i -> i - 500) in
  let f x = (x * 7919) mod 65537 in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d" jobs)
        (Array.map f a)
        (Parallel.map ~jobs f a))
    [ 1; 2; 3; 4; 8 ]

let test_init_equals_sequential_split_loop () =
  (* The engine's contract: init ~n f == the plain sequential loop that
     splits one child per element off the root, in index order. *)
  let n = 257 in
  let f r i = Int64.add (Dut_prng.Rng.bits64 r) (Int64.of_int i) in
  let expected =
    let rng = Dut_prng.Rng.create 7 in
    Array.init n (fun i -> f (Dut_prng.Rng.split rng) i)
  in
  List.iter
    (fun jobs ->
      let got = Parallel.init ~jobs ~rng:(Dut_prng.Rng.create 7) ~n f in
      Alcotest.(check (array int64)) (Printf.sprintf "jobs=%d" jobs) expected got)
    [ 1; 2; 4; 7 ]

let test_init_reduce_order () =
  (* A non-commutative reduction exposes any out-of-order fold. *)
  let reduce acc x = acc ^ "," ^ string_of_int x in
  let run jobs =
    Parallel.init_reduce ~jobs ~rng:(Dut_prng.Rng.create 3) ~n:100
      ~f:(fun _ i -> i)
      ~init:"" ~reduce
  in
  let base = run 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check string) (Printf.sprintf "jobs=%d" jobs) base (run jobs))
    [ 2; 3; 4 ]

let test_count_jobs_invariant () =
  let run jobs =
    Parallel.count ~jobs ~rng:(Dut_prng.Rng.create 11) ~n:999 (fun r _ ->
        Dut_prng.Rng.unit_float r < 0.37)
  in
  let base = run 1 in
  Alcotest.(check bool) "plausible count" true (base > 200 && base < 550);
  List.iter
    (fun jobs ->
      Alcotest.(check int) (Printf.sprintf "jobs=%d" jobs) base (run jobs))
    [ 2; 4 ]

(* -- Montecarlo on the engine ------------------------------------------ *)

let check_ci = Alcotest.(check (float 0.))

let test_estimate_prob_jobs_invariant () =
  let est jobs =
    Dut_stats.Montecarlo.estimate_prob ~jobs ~trials:501
      (Dut_prng.Rng.create 42) (fun r -> Dut_prng.Rng.unit_float r < 0.3)
  in
  let base = est 1 in
  List.iter
    (fun jobs ->
      let ci = est jobs in
      check_ci "estimate" base.Dut_stats.Binomial_ci.estimate ci.estimate;
      check_ci "lower" base.lower ci.lower;
      check_ci "upper" base.upper ci.upper)
    [ 2; 4 ]

let test_estimate_prob_matches_legacy_sequential () =
  (* The seed repo's implementation: split-per-trial in a plain loop.
     The engine must reproduce its counts exactly, both on the pooled
     path and on Parallel.count's sequential borrowed-child path
     (jobs = 1). *)
  let event r = Dut_prng.Rng.unit_float r < 0.3 in
  let legacy_successes =
    let rng = Dut_prng.Rng.create 42 in
    let s = ref 0 in
    for _ = 1 to 501 do
      if event (Dut_prng.Rng.split rng) then incr s
    done;
    !s
  in
  let legacy =
    Dut_stats.Binomial_ci.wilson95 ~successes:legacy_successes ~trials:501
  in
  List.iter
    (fun jobs ->
      let ci =
        Dut_stats.Montecarlo.estimate_prob ~jobs ~trials:501
          (Dut_prng.Rng.create 42) event
      in
      check_ci
        (Printf.sprintf "same estimate as the legacy loop (jobs=%d)" jobs)
        legacy.estimate ci.estimate)
    [ 1; 4 ]

(* -- Runner: byte-identical output across jobs counts ------------------- *)

let run_all_to_string cfg =
  let path = Filename.temp_file "dut_engine_runall" ".csv" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  ignore
    (Dut_experiments.Runner.run_all_to_channel ~csv:true ~timings:false cfg oc);
  close_out oc;
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_run_all_byte_identical_across_jobs () =
  (* A trimmed fast-profile configuration: the full fast profile takes
     minutes per sweep, and CI diffs it separately; the determinism
     argument is jobs-count invariance, which trial counts don't affect. *)
  let cfg jobs =
    {
      (Dut_experiments.Config.make ~trials:6 ~jobs Dut_experiments.Config.Fast)
      with
      calibration_trials = 30;
    }
  in
  let j1 = run_all_to_string (cfg 1) in
  let j4 = run_all_to_string (cfg 4) in
  Alcotest.(check bool) "output is nonempty" true (String.length j1 > 2000);
  Alcotest.(check string) "jobs=1 == jobs=4" j1 j4;
  (* The outputs themselves are pinned, not just their agreement: a
     kernel change that shifted every jobs count alike would pass the
     comparison above. *)
  Alcotest.(check string)
    "digest" "2a6a9a638c91d8d3489181a8e966ddc7"
    (Digest.to_hex (Digest.string j1))

(* -- DUT_JOBS parsing ---------------------------------------------------- *)

let with_env name value f =
  let old = Sys.getenv_opt name in
  Unix.putenv name value;
  Fun.protect
    ~finally:(fun () -> Unix.putenv name (Option.value old ~default:""))
    f

let test_env_jobs_parsing () =
  (* Valid values (after trimming) pass through; malformed or
     non-positive ones fall back to 1 — with a one-shot stderr warning,
     never an exception (the variable is read before the CLI can report
     errors nicely). *)
  List.iter
    (fun (v, expect) ->
      with_env "DUT_JOBS" v (fun () ->
          Alcotest.(check int)
            (Printf.sprintf "DUT_JOBS=%S" v)
            expect (Parallel.env_jobs ())))
    [
      ("4", 4);
      (" 8 ", 8);
      ("1", 1);
      ("0", 1);
      ("-3", 1);
      ("two", 1);
      ("3.5", 1);
      ("", 1);
    ]

(* -- Chunking ----------------------------------------------------------- *)

let test_chunks_errors () =
  Alcotest.check_raises "n < 0" (Invalid_argument "Parallel.chunks: n < 0")
    (fun () -> ignore (Parallel.chunks ~n:(-1) ~chunk:4));
  Alcotest.check_raises "chunk < 1"
    (Invalid_argument "Parallel.chunks: chunk < 1") (fun () ->
      ignore (Parallel.chunks ~n:4 ~chunk:0))

let prop_chunks_partition =
  QCheck.Test.make ~name:"chunking neither drops nor duplicates indices"
    ~count:500
    QCheck.(pair (int_range 0 5000) (int_range 1 257))
    (fun (n, chunk) ->
      let covered =
        Parallel.chunks ~n ~chunk |> Array.to_list
        |> List.concat_map (fun (lo, hi) -> List.init (hi - lo) (fun i -> lo + i))
      in
      covered = List.init n (fun i -> i))

let prop_map_any_jobs =
  QCheck.Test.make ~name:"map equals Array.map for any jobs count" ~count:50
    QCheck.(pair (int_range 1 8) (list_of_size Gen.(int_range 0 200) int))
    (fun (jobs, xs) ->
      let a = Array.of_list xs in
      let f x = (2 * x) + 1 in
      Parallel.map ~jobs f a = Array.map f a)

let () =
  Alcotest.run "dut_engine"
    [
      ( "pool",
        [
          Alcotest.test_case "runs every task" `Quick test_pool_runs_every_task;
          Alcotest.test_case "create/teardown joins domains" `Quick
            test_pool_create_teardown_no_leak;
          Alcotest.test_case "shutdown idempotent, run blocked" `Quick
            test_pool_shutdown_idempotent_and_blocks_run;
          Alcotest.test_case "create bounds" `Quick test_pool_create_bounds;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_propagates_exception;
          Alcotest.test_case "nested run is inline" `Quick
            test_pool_nested_run_is_inline;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "map = Array.map" `Quick test_map_matches_array_map;
          Alcotest.test_case "init = sequential split loop" `Quick
            test_init_equals_sequential_split_loop;
          Alcotest.test_case "init_reduce folds in index order" `Quick
            test_init_reduce_order;
          Alcotest.test_case "count jobs-invariant" `Quick
            test_count_jobs_invariant;
          Alcotest.test_case "chunks errors" `Quick test_chunks_errors;
          Alcotest.test_case "DUT_JOBS parsing" `Quick test_env_jobs_parsing;
        ] );
      ( "montecarlo",
        [
          Alcotest.test_case "estimate_prob jobs-invariant" `Quick
            test_estimate_prob_jobs_invariant;
          Alcotest.test_case "estimate_prob = legacy sequential" `Quick
            test_estimate_prob_matches_legacy_sequential;
        ] );
      ( "runner",
        [
          Alcotest.test_case "run_all byte-identical across jobs" `Slow
            test_run_all_byte_identical_across_jobs;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_chunks_partition; prop_map_any_jobs ] );
    ]
