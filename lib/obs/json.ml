type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Malformed of string

let int i = Num (float_of_int i)

(* -- Writer ------------------------------------------------------------ *)

let add_escaped b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let add_num b f =
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then
    (* JSON has no NaN/inf; null is the conventional spelling. *)
    Buffer.add_string b "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.0f" f)
  else Buffer.add_string b (Printf.sprintf "%.17g" f)

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num f -> add_num b f
  | Str s -> add_escaped b s
  | Arr elts ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          to_buffer b v)
        elts;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          add_escaped b k;
          Buffer.add_char b ':';
          to_buffer b v)
        kvs;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

(* -- Reader ------------------------------------------------------------ *)

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Malformed (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else fail "unexpected end" in
  let advance () = incr pos in
  let rec skip_ws () =
    if
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    then begin
      advance ();
      skip_ws ()
    end
  in
  let expect c =
    if peek () <> c then fail (Printf.sprintf "expected %c" c);
    advance ()
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' ->
          advance ();
          Buffer.contents b
      | '\\' ->
          advance ();
          (match peek () with
          | '"' | '\\' | '/' -> Buffer.add_char b (peek ())
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              (* Keep the reader tiny: skip the four hex digits and
                 substitute a '?'. *)
              advance ();
              advance ();
              advance ();
              Buffer.add_char b '?'
          | _ -> fail "bad escape");
          advance ();
          go ()
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e'
      || c = 'E'
    in
    while !pos < n && num_char s.[!pos] do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let literal lit v =
    if
      !pos + String.length lit <= n
      && String.sub s !pos (String.length lit) = lit
    then begin
      pos := !pos + String.length lit;
      v
    end
    else fail ("expected " ^ lit)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                members ((key, v) :: acc)
            | '}' ->
                advance ();
                Obj (List.rev ((key, v) :: acc))
            | _ -> fail "expected , or }"
          in
          members []
        end
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                elements (v :: acc)
            | ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          elements []
        end
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> Num (parse_number ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* -- Accessors --------------------------------------------------------- *)

let field_opt v name =
  match v with
  | Obj kvs -> List.assoc_opt name kvs
  | _ -> raise (Malformed (Printf.sprintf "expected object holding %S" name))

let field v name =
  match field_opt v name with
  | Some m -> m
  | None -> raise (Malformed (Printf.sprintf "missing field %S" name))

let want_num v name =
  match field v name with
  | Num f -> f
  | _ -> raise (Malformed (Printf.sprintf "field %S: expected number" name))

let want_str v name =
  match field v name with
  | Str s -> s
  | _ -> raise (Malformed (Printf.sprintf "field %S: expected string" name))

let want_bool v name =
  match field v name with
  | Bool b -> b
  | _ -> raise (Malformed (Printf.sprintf "field %S: expected bool" name))
