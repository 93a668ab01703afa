type t = {
  graph : Graph.t;
  tree : Span_tree.t;
  n : int;
  eps : float;
  q : int;
  root_cutoff : int;
}

type node_state = {
  reject : bool;  (** this node's own vote *)
  pending : int;  (** children yet to report *)
  subtotal : int;  (** reject count accumulated from reported children *)
  sent_up : bool;
  verdict : bool option;
}

type message = Count of int | Verdict of bool

let make ~graph ~n ~eps ~q ~calibration_trials ~rng =
  if n <= 0 || q < 0 then invalid_arg "Local_tester.make: bad sizes";
  if eps <= 0. || eps >= 1. then invalid_arg "Local_tester.make: eps out of (0,1)";
  if calibration_trials <= 0 then invalid_arg "Local_tester.make: trials <= 0";
  let tree = Span_tree.of_graph graph ~root:0 in
  let k = Graph.n graph in
  (* Root cutoff: same calibration as the simultaneous majority tester —
     the reject-count distribution of k iid midpoint votes under the
     uniform null (the topology doesn't change the votes, only their
     transport). *)
  let root_cutoff =
    Dut_protocol.Calibrate.reject_count_cutoff ~trials:calibration_trials
      (Dut_prng.Rng.split rng)
      ~rejects:(Dut_core.Local_stat.null_midpoint_rejects ~n ~q ~eps ~voters:k)
      ~level:0.2
  in
  { graph; tree; n; eps; q; root_cutoff }

type result = {
  accept : bool;
  rounds : int;
  messages : int;
  max_message_bits : int;
  local_time : int;
  all_agree : bool;
}

let bits_needed v =
  let rec go b x = if x = 0 then max b 1 else go (b + 1) (x lsr 1) in
  go 0 v

let height t = t.tree.Span_tree.height

let run t rng source =
  let tree = t.tree in
  let rounds = 2 * tree.Span_tree.height in
  let max_bits = ref 0 in
  let note_message = function
    | Count c -> max_bits := max !max_bits (bits_needed c)
    | Verdict _ -> max_bits := max !max_bits 1
  in
  let raw_step ~node state inbox =
          (* Absorb incoming reports and verdicts. *)
          let state =
            List.fold_left
              (fun st msg ->
                match msg with
                | Count c ->
                    { st with pending = st.pending - 1; subtotal = st.subtotal + c }
                | Verdict v -> { st with verdict = Some v })
              state inbox
          in
          let own = if state.reject then 1 else 0 in
          let is_root = tree.Span_tree.parent.(node) < 0 in
          (* Leaf/internal node with all children reported: send up once. *)
          if (not is_root) && state.pending = 0 && not state.sent_up then
            ( { state with sent_up = true },
              [ (tree.Span_tree.parent.(node), Count (state.subtotal + own)) ] )
          else if is_root && state.pending = 0 && state.verdict = None then begin
            (* Root decides and starts the broadcast. *)
            let total = state.subtotal + own in
            let verdict = total < t.root_cutoff in
            ( { state with verdict = Some verdict },
              List.map
                (fun c -> (c, Verdict verdict))
                tree.Span_tree.children.(node) )
          end
          else
            (* Forward a freshly learned verdict to children. *)
            match (state.verdict, inbox) with
            | Some v, _ :: _
              when List.exists (function Verdict _ -> true | Count _ -> false) inbox
              ->
                ( state,
                  List.map (fun c -> (c, Verdict v)) tree.Span_tree.children.(node)
                )
            | _, _ -> (state, [])
  in
  let logic =
    {
      Sync_net.init =
        (fun node coins ->
          let samples = Array.init t.q (fun _ -> source coins) in
          {
            reject =
              not
                (Dut_core.Local_stat.vote_midpoint ~n:t.n ~q:t.q ~eps:t.eps
                   samples);
            pending = List.length tree.Span_tree.children.(node);
            subtotal = 0;
            sent_up = false;
            verdict = None;
          });
      step =
        (fun ~round:_ ~node _coins state inbox ->
          let state, outbox = raw_step ~node state inbox in
          List.iter (fun (_, m) -> note_message m) outbox;
          (state, outbox));
    }
  in
  let states, messages =
    Sync_net.run ~graph:t.graph ~rng ~rounds:(rounds + 1) ~logic
  in
  let root_verdict =
    match states.(tree.Span_tree.root).verdict with
    | Some v -> v
    | None -> invalid_arg "Local_tester.run: root did not decide (internal error)"
  in
  let all_agree =
    Array.for_all (fun st -> st.verdict = Some root_verdict) states
  in
  {
    accept = root_verdict;
    rounds = rounds + 1;
    messages;
    max_message_bits = !max_bits;
    local_time = t.q + rounds + 1;
    all_agree;
  }

let tester ~graph ~n ~eps ~q ~calibration_trials ~rng =
  let t = make ~graph ~n ~eps ~q ~calibration_trials ~rng in
  fun rng source -> (run t rng source).accept
