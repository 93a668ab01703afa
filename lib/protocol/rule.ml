type t =
  | And
  | Or
  | Reject_threshold of int
  | Accept_at_least of int
  | Majority

let count_ones bits =
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 bits

let apply rule bits =
  let k = Array.length bits in
  if k = 0 then invalid_arg "Rule.apply: no players";
  match rule with
  | And -> count_ones bits = k
  | Or -> count_ones bits > 0
  | Reject_threshold t ->
      if t <= 0 then invalid_arg "Rule.apply: threshold must be positive";
      k - count_ones bits < t
  | Accept_at_least c ->
      if c <= 0 then invalid_arg "Rule.apply: count must be positive";
      count_ones bits >= c
  | Majority -> 2 * count_ones bits > k

let accept_min rule ~k =
  if k <= 0 then invalid_arg "Rule.accept_min: no players";
  match rule with
  | And -> k
  | Or -> 1
  | Reject_threshold t ->
      if t <= 0 then invalid_arg "Rule.accept_min: threshold must be positive";
      k - t + 1
  | Accept_at_least c ->
      if c <= 0 then invalid_arg "Rule.accept_min: count must be positive";
      c
  | Majority -> (k / 2) + 1

let name = function
  | And -> "AND"
  | Or -> "OR"
  | Reject_threshold t -> Printf.sprintf "reject>=%d" t
  | Accept_at_least c -> Printf.sprintf "accept>=%d" c
  | Majority -> "majority"
