type window = Growing | Sliding of int

let window_to_string = function
  | Growing -> "growing"
  | Sliding w -> Printf.sprintf "sliding:%d" w

type verdict = {
  index : int;
  samples_seen : int;
  window_samples : int;
  stat : float;
  threshold : float;
  reject : bool;
  alpha_spent : float;
}

type t = {
  eps : float;
  alpha : float;
  window : window;
  every : int;
  cum : Sketch.t;  (* everything observed, merged in place *)
  mutable win : Sketch.t;
      (* the judged window: [cum] itself when growing; when sliding, a
         running sketch of the last [w] chunks, made at the first
         observe so that [create] costs what it always did *)
  ring : Sketch.t option array;
      (* sliding: owned copies of the last [w] chunks, mod-indexed *)
  mutable nchunks : int;
  mutable checkpoints : int;
  mutable spent : float;
  mutable first_reject : verdict option;
  mutable emitted : verdict list;  (* reverse emission order *)
}

let m_verdicts = Dut_obs.Metrics.counter "stream.verdicts_emitted"

let create ?(window = Growing) ?(alpha = 0.05) ?(every = 1) ~eps cfg =
  if not (eps > 0. && eps <= 1.) then invalid_arg "Anytime.create: eps not in (0,1]";
  if not (alpha > 0. && alpha < 1.) then
    invalid_arg "Anytime.create: alpha not in (0,1)";
  if every < 1 then invalid_arg "Anytime.create: every < 1";
  let ring =
    match window with
    | Growing -> [||]
    | Sliding w when w >= 1 -> Array.make w None
    | Sliding _ -> invalid_arg "Anytime.create: sliding window < 1 chunk"
  in
  let cum = Sketch.create cfg in
  {
    eps;
    alpha;
    window;
    every;
    cum;
    win = cum;
    ring;
    nchunks = 0;
    checkpoints = 0;
    spent = 0.;
    first_reject = None;
    emitted = [];
  }

(* α_j = α · 6/(π²·j²): a convergent spending schedule whose tail decays
   polynomially, so late checkpoints keep usable budget (a 2^-j
   schedule starves a long run's sliding windows). *)
let alpha_at t j = t.alpha *. 6. /. (Float.pi *. Float.pi *. float_of_int j *. float_of_int j)

let checkpoint t =
  t.checkpoints <- t.checkpoints + 1;
  let j = t.checkpoints in
  let aj = alpha_at t j in
  t.spent <- t.spent +. aj;
  let sk = t.win in
  let stat = Sketch.excess sk in
  let slack = Sketch.null_sd sk /. sqrt aj in
  let threshold = Float.max (Sketch.gap sk ~eps:t.eps /. 2.) slack in
  let v =
    {
      index = j;
      samples_seen = Sketch.count t.cum;
      window_samples = Sketch.count sk;
      stat;
      threshold;
      reject = stat > threshold;
      alpha_spent = t.spent;
    }
  in
  if v.reject && t.first_reject = None then t.first_reject <- Some v;
  t.emitted <- v :: t.emitted;
  Dut_obs.Metrics.incr m_verdicts;
  v

let observe t chunk =
  Sketch.merge_into ~into:t.cum chunk;
  (match t.window with
  | Growing -> ()
  | Sliding w ->
      (* The window gains this chunk and loses the one [w] back: O(chunk)
         rather than a re-merge of [w] bucket arrays. Counts are
         integers, so it equals that re-merge exactly. *)
      if t.nchunks = 0 then t.win <- Sketch.create (Sketch.config_of t.cum);
      let slot = t.nchunks mod w in
      (match t.ring.(slot) with
      | None -> t.ring.(slot) <- Some (Sketch.copy chunk)
      | Some evicted ->
          Sketch.subtract ~from:t.win evicted;
          Sketch.blit ~src:chunk ~dst:evicted);
      Sketch.merge_into ~into:t.win chunk);
  t.nchunks <- t.nchunks + 1;
  if t.nchunks mod t.every = 0 then Some (checkpoint t) else None

let rejected t = t.first_reject


let samples_seen t = Sketch.count t.cum

let cumulative t = t.cum

let window_sketch t = t.win

let verdicts t = List.rev t.emitted

let final t =
  let stat = Sketch.decision_stat t.cum in
  let cutoff = Sketch.cutoff t.cum ~eps:t.eps in
  let v =
    {
      index = 0;
      samples_seen = Sketch.count t.cum;
      window_samples = Sketch.count t.cum;
      stat;
      threshold = cutoff;
      reject = not (stat < cutoff);
      alpha_spent = t.spent;
    }
  in
  Dut_obs.Metrics.incr m_verdicts;
  v
