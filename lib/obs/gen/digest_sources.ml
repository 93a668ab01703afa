(* Print the code identity of a source tree as one OCaml line,
   [let sources = "<md5>"]: the MD5 of every .ml, .mli, .c and dune
   file under ROOT/lib and ROOT/bin, taken as (relative path, content)
   pairs in sorted path order. The rule in lib/obs/dune runs it over a
   sandboxed copy of the sources, so two checkouts of one tree agree
   and any edit to a source changes the line.

   Usage: digest_sources ROOT SKIP, where SKIP is the relative path of
   the rule's own target, left out of the digest. *)

let wanted name =
  name = "dune" || List.exists (Filename.check_suffix name) [ ".ml"; ".mli"; ".c" ]

let rec walk acc ~rel dir =
  Array.fold_left
    (fun acc name ->
      let path = Filename.concat dir name and rel = rel ^ "/" ^ name in
      if Sys.is_directory path then
        if name.[0] = '.' then acc else walk acc ~rel path
      else if wanted name then (rel, path) :: acc
      else acc)
    acc (Sys.readdir dir)

let () =
  let root = Sys.argv.(1) and skip = Sys.argv.(2) in
  let files =
    List.fold_left
      (fun acc top -> walk acc ~rel:top (Filename.concat root top))
      [] [ "lib"; "bin" ]
    |> List.filter (fun (rel, _) -> rel <> skip)
    |> List.sort compare
  in
  let b = Buffer.create 65536 in
  List.iter
    (fun (rel, path) ->
      let content = In_channel.with_open_bin path In_channel.input_all in
      Printf.bprintf b "%s\000%d\000%s" rel (String.length content) content)
    files;
  Printf.printf "let sources = %S\n"
    (Digest.to_hex (Digest.string (Buffer.contents b)))
