(* Smoke test of the benchmark: every workload at --smoke size, untraced
   and traced, must emit every metric BENCHMARK.json names, finite and
   with its unit, and fail no operation; the generated inputs must
   depend on the seed and on nothing else.

   Usage: smoke.exe MAIN DUT BENCHMARK_JSON *)

module J = Dut_obs.Json

let main = Sys.argv.(1)
let dut = Sys.argv.(2)
let bench_json = Sys.argv.(3)
let failures = ref 0

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        incr failures;
        prerr_endline ("FAIL " ^ msg)
      end)
    fmt

let run args =
  let ic = Unix.open_process_args_in main (Array.of_list (main :: args)) in
  let lines = In_channel.input_lines ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> lines
  | _ -> failwith ("benchmark failed: " ^ String.concat " " args)

let name_ok name =
  name <> ""
  && String.length name <= 64
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       name

let () =
  let bench = J.parse (In_channel.with_open_bin bench_json In_channel.input_all) in
  let entries key = match J.field bench key with J.Arr xs -> xs | _ -> [] in
  let metrics key =
    List.map (fun m -> (J.want_str m "name", J.want_str m "unit")) (entries key)
  in
  let workloads = List.map (fun w -> J.want_str w "name") (entries "workloads") in
  List.iter
    (fun name -> check (name_ok name) "name %S does not match [A-Za-z0-9_.-]+" name)
    (workloads @ List.map fst (metrics "end_to_end" @ metrics "per_layer"));
  List.iter
    (fun workload ->
      List.iter
        (fun (trace, key) ->
          let lines =
            run
              [
                "--workload"; workload; "--seed"; "7"; "--seconds"; "0"; "--smoke";
                "--trace"; trace; "--dut"; dut; "--work"; "work"; "--bench-json"; bench_json;
              ]
          in
          let result = J.parse (List.nth lines (List.length lines - 1)) in
          let where = Printf.sprintf "%s --trace %s" workload trace in
          check (J.want_bool result "correct") "%s: not correct" where;
          check (J.want_num result "failed" = 0.) "%s: failed operations" where;
          check (J.want_num result "attempted" >= 1.) "%s: nothing attempted" where;
          let got = J.field result "metrics" in
          List.iter
            (fun (name, unit_) ->
              match J.field_opt got name with
              | None -> check false "%s: %s missing" where name
              | Some m ->
                  check (J.want_str m "unit" = unit_) "%s: %s has the wrong unit" where name;
                  check
                    (Float.is_finite (J.want_num m "value"))
                    "%s: %s is not finite" where name)
            (metrics key))
        [ ("0", "end_to_end"); ("1", "per_layer") ])
    workloads;
  let inputs seed = run [ "--inputs"; "--seed"; seed ] in
  let a = inputs "7" and b = inputs "7" and c = inputs "8" in
  check (a = b) "the same seed gave different inputs";
  check (List.length a = List.length workloads) "--inputs misses a workload";
  List.iter2 (fun x y -> check (x <> y) "two seeds gave the same inputs: %s" x) a c;
  if !failures > 0 then exit 1
