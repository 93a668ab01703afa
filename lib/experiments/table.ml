type cell = Int of int | Float of float | Str of string | Bool of bool

type t = {
  title : string;
  columns : string list;
  rows : cell list list;
  notes : string list;
}

let make ~title ~columns ?(notes = []) rows =
  let width = List.length columns in
  List.iteri
    (fun i row ->
      if List.length row <> width then
        invalid_arg
          (Printf.sprintf "Table.make(%s): row %d has %d cells, expected %d"
             title i (List.length row) width))
    rows;
  { title; columns; rows; notes }

let trim_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.5g" x

let cell_to_string = function
  | Int i -> string_of_int i
  | Float f ->
      (* Non-finite values are rendered as "n/a": one vocabulary across
         tables and CSV (JSON itself has no NaN/inf). *)
      if Float.is_nan f || Float.abs f = infinity then "n/a" else trim_float f
  | Str s -> s
  | Bool b -> if b then "yes" else "no"

let render t =
  let header = t.columns in
  let body = List.map (List.map cell_to_string) t.rows in
  let all = header :: body in
  let ncols = List.length header in
  let widths =
    List.init ncols (fun c ->
        List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all)
  in
  let pad s w = s ^ String.make (w - String.length s) ' ' in
  let rtrim s =
    let len = ref (String.length s) in
    while !len > 0 && s.[!len - 1] = ' ' do
      decr len
    done;
    String.sub s 0 !len
  in
  let render_row row =
    rtrim (String.concat "  " (List.mapi (fun c s -> pad s (List.nth widths c)) row))
  in
  let sep =
    String.concat "  " (List.map (fun w -> String.make w '-') widths)
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buf (render_row header ^ "\n");
  Buffer.add_string buf (sep ^ "\n");
  List.iter (fun row -> Buffer.add_string buf (render_row row ^ "\n")) body;
  List.iter (fun note -> Buffer.add_string buf ("  note: " ^ note ^ "\n")) t.notes;
  Buffer.contents buf

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("# " ^ t.title ^ "\n");
  Buffer.add_string buf (String.concat "," (List.map csv_escape t.columns) ^ "\n");
  List.iter
    (fun row ->
      Buffer.add_string buf
        (String.concat "," (List.map (fun c -> csv_escape (cell_to_string c)) row)
        ^ "\n"))
    t.rows;
  List.iter (fun note -> Buffer.add_string buf ("# " ^ note ^ "\n")) t.notes;
  Buffer.contents buf

let get_float t ~row ~col =
  match List.nth_opt t.rows row with
  | None -> invalid_arg "Table.get_float: row out of range"
  | Some r -> (
      match List.nth_opt r col with
      | None -> invalid_arg "Table.get_float: column out of range"
      | Some (Int i) -> float_of_int i
      | Some (Float f) -> f
      | Some (Str _ | Bool _) -> invalid_arg "Table.get_float: non-numeric cell")

let column_floats t ~col =
  List.filter_map
    (fun row ->
      match List.nth_opt row col with
      | Some (Int i) -> Some (float_of_int i)
      | Some (Float f) -> Some f
      | Some (Str _ | Bool _) | None -> None)
    t.rows
  |> Array.of_list
