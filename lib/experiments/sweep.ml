let critical (cfg : Config.t) rng ?(level = cfg.level) ~ell ~eps ?lo ?hi
    ?guess make =
  Dut_core.Evaluate.critical_q ~adaptive:cfg.adaptive ~trials:cfg.trials
    ~level ~rng:(Dut_prng.Rng.split rng) ~ell ~eps ?lo ?hi
    ?guess:(if cfg.warm_start then guess else None)
    make

let grid ?(descending = false) (cfg : Config.t) ~guess search xs =
  let anchor = ref None in
  let point x =
    let q =
      search x
        (match !anchor with Some (x0, q0) -> Some (guess x0 q0 x) | None -> None)
    in
    (match q with Some q -> anchor := Some (x, q) | None -> ());
    (x, q)
  in
  if descending && cfg.warm_start then List.rev (List.map point (List.rev xs))
  else List.map point xs

let round ?(least = 1) f = max least (int_of_float (Float.round f))

let points abscissa results =
  Array.of_list
    (List.filter_map
       (fun (x, q) -> Option.map (fun q -> (abscissa x, float_of_int q)) q)
       results)

let exponent abscissa results =
  let pts = points abscissa results in
  if Array.length pts >= 2 then Dut_stats.Fit.power_law_exponent pts
  else Float.nan
