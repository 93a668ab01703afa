type 'msg outbox = (int * 'msg) list

type ('state, 'msg) node_logic = {
  init : int -> Dut_prng.Rng.t -> 'state;
  step :
    round:int ->
    node:int ->
    Dut_prng.Rng.t ->
    'state ->
    'msg list ->
    'state * 'msg outbox;
}

let run ~graph ~rng ~rounds ~logic =
  if rounds < 0 then invalid_arg "Sync_net.run: negative rounds";
  let k = Graph.n graph in
  let coins = Dut_prng.Rng.split_n rng k in
  let states = Array.init k (fun v -> logic.init v coins.(v)) in
  let inboxes = Array.make k [] in
  let delivered = ref 0 in
  for round = 0 to rounds - 1 do
    let next_inboxes = Array.make k [] in
    for v = 0 to k - 1 do
      let state, outbox =
        logic.step ~round ~node:v coins.(v) states.(v) (List.rev inboxes.(v))
      in
      states.(v) <- state;
      List.iter
        (fun (dst, msg) ->
          if not (Graph.mem_edge graph v dst) then
            invalid_arg
              (Printf.sprintf "Sync_net.run: node %d sent to non-neighbor %d" v dst);
          incr delivered;
          next_inboxes.(dst) <- msg :: next_inboxes.(dst))
        outbox
    done;
    Array.blit next_inboxes 0 inboxes 0 k
  done;
  (states, !delivered)
