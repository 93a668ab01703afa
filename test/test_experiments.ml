(* Tests for dut_experiments: the table type, configuration, registry,
   and structural assertions on the cheap (exact) experiments' output. *)

open Dut_experiments

let check_float = Alcotest.(check (float 1e-9))

(* -- Table ------------------------------------------------------------ *)

let sample_table () =
  Table.make ~title:"demo" ~columns:[ "a"; "b"; "c" ]
    ~notes:[ "a note" ]
    [
      [ Table.Int 1; Table.Float 2.5; Table.Str "x" ];
      [ Table.Int 10; Table.Float 0.125; Table.Bool true ];
    ]

let test_table_make_validates_width () =
  Alcotest.check_raises "ragged row"
    (Invalid_argument "Table.make(bad): row 0 has 1 cells, expected 2") (fun () ->
      ignore (Table.make ~title:"bad" ~columns:[ "a"; "b" ] [ [ Table.Int 1 ] ]))

let test_table_render_contains_everything () =
  let s = Table.render (sample_table ()) in
  List.iter
    (fun needle ->
      if not (Astring.String.is_infix ~affix:needle s) then
        Alcotest.failf "render missing %S in:\n%s" needle s)
    [ "demo"; "a  "; "2.5"; "yes"; "a note" ]

let test_table_csv () =
  let csv = Table.to_csv (sample_table ()) in
  Alcotest.(check bool) "has header" true
    (Astring.String.is_infix ~affix:"a,b,c" csv);
  Alcotest.(check bool) "has a row" true
    (Astring.String.is_infix ~affix:"1,2.5,x" csv)

let test_table_get_float () =
  let t = sample_table () in
  check_float "int widened" 1. (Table.get_float t ~row:0 ~col:0);
  check_float "float" 2.5 (Table.get_float t ~row:0 ~col:1);
  Alcotest.check_raises "non-numeric"
    (Invalid_argument "Table.get_float: non-numeric cell") (fun () ->
      ignore (Table.get_float t ~row:0 ~col:2))

let test_table_column_floats () =
  let t = sample_table () in
  Alcotest.(check (array (float 1e-9))) "numeric column" [| 1.; 10. |]
    (Table.column_floats t ~col:0);
  (* Mixed column keeps only numerics. *)
  Alcotest.(check int) "mixed column filtered" 0
    (Array.length (Table.column_floats t ~col:2))

let test_cell_to_string () =
  Alcotest.(check string) "int" "7" (Table.cell_to_string (Table.Int 7));
  Alcotest.(check string) "bool" "no" (Table.cell_to_string (Table.Bool false));
  (* Non-finite floats render as "n/a", in CSV and aligned output
     alike. *)
  Alcotest.(check string) "nan" "n/a" (Table.cell_to_string (Table.Float Float.nan));
  Alcotest.(check string) "inf" "n/a" (Table.cell_to_string (Table.Float infinity));
  Alcotest.(check string) "-inf" "n/a"
    (Table.cell_to_string (Table.Float neg_infinity));
  Alcotest.(check string) "integral float" "4" (Table.cell_to_string (Table.Float 4.));
  let csv =
    Table.to_csv
      (Table.make ~title:"nonfinite" ~columns:[ "x" ] [ [ Table.Float Float.nan ] ])
  in
  Alcotest.(check bool) "csv renders n/a" true
    (Astring.String.is_infix ~affix:"n/a" csv)

(* -- Config ----------------------------------------------------------- *)

let test_config_profiles () =
  let fast = Config.make Config.Fast in
  let full = Config.make Config.Full in
  Alcotest.(check bool) "full has more trials" true (full.trials > fast.trials);
  Alcotest.(check bool) "fast flag" true (Config.is_fast fast);
  Alcotest.(check bool) "full flag" false (Config.is_fast full);
  Alcotest.(check int) "default seed" 2019 fast.seed

let test_config_profile_strings () =
  Alcotest.(check (option string)) "fast roundtrip" (Some "fast")
    (Option.map Config.profile_to_string (Config.profile_of_string "fast"));
  Alcotest.(check bool) "unknown" true (Config.profile_of_string "???" = None)

let test_config_rng_deterministic () =
  let cfg = Config.make ~seed:99 Config.Fast in
  Alcotest.(check int64) "same stream"
    (Dut_prng.Rng.bits64 (Config.rng cfg))
    (Dut_prng.Rng.bits64 (Config.rng cfg))

(* -- Registry ---------------------------------------------------------- *)

let test_registry_ids_unique () =
  let ids = Registry.ids () in
  Alcotest.(check int) "no duplicates" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_registry_find () =
  Alcotest.(check bool) "finds T1" true (Registry.find "T1-any-rule" <> None);
  Alcotest.(check bool) "finds F1" true (Registry.find "F1-lemma51" <> None);
  Alcotest.(check bool) "unknown" true (Registry.find "nope" = None)

let test_registry_covers_design_doc () =
  List.iter
    (fun id ->
      if Registry.find id = None then Alcotest.failf "missing experiment %s" id)
    [
      "T1-any-rule"; "T2-and-rule"; "T3-threshold-T"; "T4-learning";
      "T5-centralized"; "T6-rbit"; "T7-async"; "F1-lemma51"; "F2-moments";
      "F3-kkl"; "F4-separation"; "T8-combinatorics"; "T9-and-impossible";
      "T10-single-sample"; "T11-divergence";
    ]

(* -- Cheap experiment runs (exact ones only) ---------------------------- *)

let run_exp id =
  match Registry.find id with
  | None -> Alcotest.failf "experiment %s missing" id
  | Some e -> e.Exp.run (Config.make Config.Fast)

let test_run_f2_moments () =
  match run_exp "F2-moments" with
  | [ moments; xs ] ->
      (* Every ratio column must be <= 1. *)
      Array.iter
        (fun r -> if r > 1. then Alcotest.failf "moment ratio %f > 1" r)
        (Table.column_floats moments ~col:6);
      Array.iter
        (fun r -> if r > 1. then Alcotest.failf "X_S ratio %f > 1" r)
        (Table.column_floats xs ~col:5)
  | _ -> Alcotest.fail "expected two tables"

let test_run_f3_kkl () =
  match run_exp "F3-kkl" with
  | [ t ] ->
      Array.iter
        (fun r -> if r > 1. then Alcotest.failf "KKL ratio %f > 1" r)
        (Table.column_floats t ~col:6)
  | _ -> Alcotest.fail "expected one table"

let test_run_t8_combinatorics () =
  match run_exp "T8-combinatorics" with
  | [ t ] ->
      List.iter
        (fun col ->
          Array.iter
            (fun err ->
              if err > 1e-9 then Alcotest.failf "identity error %g too large" err)
            (Table.column_floats t ~col))
        [ 2; 3; 4 ]
  | _ -> Alcotest.fail "expected one table"

let test_run_t11_divergence () =
  match run_exp "T11-divergence" with
  | [ t ] ->
      (* KL must be within budget on every row: the boolean column renders
         as yes. *)
      List.iteri
        (fun i row ->
          match List.nth row 5 with
          | Table.Bool b ->
              if not b then Alcotest.failf "row %d exceeds the budget" i
          | _ -> Alcotest.fail "expected bool cell")
        t.Table.rows
  | _ -> Alcotest.fail "expected one table"

let test_run_f1_lemma51 () =
  match run_exp "F1-lemma51" with
  | [ t ] ->
      (* Whenever the L5.1 side condition holds (col 4 = yes), the ratio
         (col 3) must be <= 1. *)
      List.iter
        (fun row ->
          match (List.nth row 3, List.nth row 4) with
          | Table.Float ratio, Table.Bool true ->
              if ratio > 1. then Alcotest.failf "L5.1 ratio %f > 1" ratio
          | _, _ -> ())
        t.Table.rows
  | _ -> Alcotest.fail "expected one table"

let test_run_t14_all_rules () =
  match run_exp "T14-all-rules" with
  | [ t ] ->
      (* Exact values live in [0.5, 1]; the AND value never beats the
         general one. *)
      List.iter
        (fun row ->
          match (List.nth row 2, List.nth row 4) with
          | Table.Float general, Table.Float and_v ->
              if general < 0.5 -. 1e-9 || general > 1. then
                Alcotest.failf "general value %f out of range" general;
              if and_v > general +. 1e-9 then
                Alcotest.failf "AND %f beats general %f" and_v general
          | _, _ -> Alcotest.fail "unexpected cell types")
        t.Table.rows
  | _ -> Alcotest.fail "expected one table"

let test_run_f6_exact_power () =
  match run_exp "F6-exact-power" with
  | [ t ] ->
      (* The best cutoff's power weakly improves on the midpoint's. *)
      List.iter
        (fun row ->
          match (List.nth row 2, List.nth row 5) with
          | Table.Float best, Table.Float mid ->
              if mid > best +. 1e-9 then
                Alcotest.failf "midpoint %f beats best %f" mid best
          | _, _ -> Alcotest.fail "unexpected cell types")
        t.Table.rows
  | _ -> Alcotest.fail "expected one table"

let test_run_f7_divergence () =
  match run_exp "F7-rbit-divergence" with
  | [ t ] ->
      (* Gains over one bit are >= 1 (data processing). *)
      Array.iter
        (fun g -> if g < 1. -. 1e-9 then Alcotest.failf "gain %f < 1" g)
        (Table.column_floats t ~col:4)
  | _ -> Alcotest.fail "expected one table"

(* -- Verifier ----------------------------------------------------------- *)

let test_verifier_all_pass () =
  let verdicts = Verifier.verify_all (Config.make Config.Fast) in
  Alcotest.(check int) "covers all registered checkers"
    (List.length Verifier.checked_ids)
    (List.length verdicts);
  List.iter
    (fun v ->
      if v.Verifier.failures <> [] then
        Alcotest.failf "%s failed: %s" v.experiment
          (String.concat "; " v.failures);
      if v.checks = 0 then Alcotest.failf "%s ran zero checks" v.experiment)
    verdicts;
  Alcotest.(check bool) "all passed" true (Verifier.all_passed verdicts)

let test_verifier_unknown_id () =
  Alcotest.(check bool) "unknown id gives None" true
    (Verifier.verify_one (Config.make Config.Fast) "nope" = None);
  Alcotest.(check bool) "non-exact experiment gives None" true
    (Verifier.verify_one (Config.make Config.Fast) "T1-any-rule" = None)

let () =
  Alcotest.run "dut_experiments"
    [
      ( "table",
        [
          Alcotest.test_case "width validation" `Quick test_table_make_validates_width;
          Alcotest.test_case "render" `Quick test_table_render_contains_everything;
          Alcotest.test_case "csv" `Quick test_table_csv;
          Alcotest.test_case "get_float" `Quick test_table_get_float;
          Alcotest.test_case "column_floats" `Quick test_table_column_floats;
          Alcotest.test_case "cell_to_string" `Quick test_cell_to_string;
        ] );
      ( "config",
        [
          Alcotest.test_case "profiles" `Quick test_config_profiles;
          Alcotest.test_case "profile strings" `Quick test_config_profile_strings;
          Alcotest.test_case "rng deterministic" `Quick test_config_rng_deterministic;
        ] );
      ( "registry",
        [
          Alcotest.test_case "ids unique" `Quick test_registry_ids_unique;
          Alcotest.test_case "find" `Quick test_registry_find;
          Alcotest.test_case "covers design doc" `Quick test_registry_covers_design_doc;
        ] );
      ( "runs",
        [
          Alcotest.test_case "F2 moments" `Quick test_run_f2_moments;
          Alcotest.test_case "F3 kkl" `Quick test_run_f3_kkl;
          Alcotest.test_case "T8 combinatorics" `Quick test_run_t8_combinatorics;
          Alcotest.test_case "T11 divergence" `Quick test_run_t11_divergence;
          Alcotest.test_case "F1 lemma51" `Quick test_run_f1_lemma51;
          Alcotest.test_case "T14 all rules" `Quick test_run_t14_all_rules;
          Alcotest.test_case "F6 exact power" `Quick test_run_f6_exact_power;
          Alcotest.test_case "F7 divergence" `Quick test_run_f7_divergence;
        ] );
      ( "runner",
        [
          Alcotest.test_case "run_to_channel produces output" `Quick (fun () ->
              match Registry.find "T8-combinatorics" with
              | None -> Alcotest.fail "missing experiment"
              | Some exp ->
                  let path = Filename.temp_file "dut_runner" ".txt" in
                  let oc = open_out path in
                  let outcome =
                    Runner.run_to_channel (Config.make Config.Fast) exp oc
                  in
                  close_out oc;
                  let ic = open_in path in
                  let len = in_channel_length ic in
                  close_in ic;
                  Sys.remove path;
                  Alcotest.(check bool) "nonempty output" true (len > 100);
                  Alcotest.(check bool) "ran clean" false (Runner.failed outcome);
                  Alcotest.(check bool)
                    "elapsed non-negative" true
                    (outcome.Runner.seconds >= 0.));
        ] );
      ( "verifier",
        [
          Alcotest.test_case "all exact claims pass" `Quick test_verifier_all_pass;
          Alcotest.test_case "unknown ids" `Quick test_verifier_unknown_id;
        ] );
    ]
