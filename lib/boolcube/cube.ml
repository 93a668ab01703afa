let coord x i = if (x lsr i) land 1 = 1 then -1 else 1

let of_signs signs =
  Array.to_list signs
  |> List.mapi (fun i s ->
         match s with
         | 1 -> 0
         | -1 -> 1 lsl i
         | _ -> invalid_arg "Cube.of_signs: entries must be +1 or -1")
  |> List.fold_left ( lor ) 0

let to_signs ~dim x = Array.init dim (fun i -> coord x i)

let popcount x =
  let rec go acc x = if x = 0 then acc else go (acc + (x land 1)) (x lsr 1) in
  go 0 x

let parity x =
  let rec go acc x = if x = 0 then acc else go (acc lxor (x land 1)) (x lsr 1) in
  go 0 x

let chi s x = if parity (s land x) = 0 then 1 else -1

let iter_points ~dim f =
  let size = 1 lsl dim in
  for x = 0 to size - 1 do
    f x
  done

(* Gosper's hack: next integer with the same popcount. *)
let next_same_popcount v =
  let c = v land -v in
  let r = v + c in
  r lor (((v lxor r) / c) lsr 2)

let iter_subsets_of_size ~dim ~size f =
  if size < 0 || size > dim then invalid_arg "Cube.iter_subsets_of_size";
  if size = 0 then f 0
  else begin
    let limit = 1 lsl dim in
    let s = ref ((1 lsl size) - 1) in
    while !s < limit do
      f !s;
      s := next_same_popcount !s
    done
  end

let subsets_of_size ~dim ~size =
  let acc = ref [] in
  iter_subsets_of_size ~dim ~size (fun s -> acc := s :: !acc);
  List.rev !acc

let binomial n k =
  if k < 0 || k > n then 0.
  else begin
    let k = min k (n - k) in
    let acc = ref 1. in
    for i = 1 to k do
      acc := !acc *. float_of_int (n - k + i) /. float_of_int i
    done;
    (* The product is an integer; round away float drizzle. *)
    Float.round !acc
  end

let double_factorial n =
  let rec go acc n = if n <= 0 then acc else go (acc *. float_of_int n) (n - 2) in
  go 1. n
