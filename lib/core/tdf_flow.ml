type report = {
  universe : int;
  scan : int;
  baseline : int;
  debug_control : int;
  debug_observe : int;
  memory : int;
  total : int;
  fraction : float;
  seconds : float;
}

let of_flow (r : Flow.report) =
  let t0 = Unix.gettimeofday () in
  let nsteps = List.length r.Flow.steps in
  let counts = Array.make nsteps 0 in
  (* sites are the pairs (2j, 2j+1) of the flow's list; a site's step is
     the earlier of its two closing steps, open (255) when neither *)
  for j = 0 to (r.Flow.universe / 2) - 1 do
    let k =
      min
        (Bytes.get_uint8 r.Flow.closed_by (2 * j))
        (Bytes.get_uint8 r.Flow.closed_by ((2 * j) + 1))
    in
    if k < nsteps then counts.(k) <- counts.(k) + 2
  done;
  let by_source =
    List.mapi (fun k (s : Flow.step_report) -> (s.Flow.source, counts.(k)))
      r.Flow.steps
  in
  let count src = List.assoc src by_source in
  let total = Array.fold_left ( + ) 0 counts in
  {
    universe = r.Flow.universe;
    scan = count Flow.Scan;
    baseline = count Flow.Baseline;
    debug_control = count Flow.Debug_control;
    debug_observe = count Flow.Debug_observe;
    memory = count Flow.Memory;
    total;
    fraction = float_of_int total /. float_of_int (max 1 r.Flow.universe);
    seconds = r.Flow.seconds +. (Unix.gettimeofday () -. t0);
  }

let pp ppf r =
  let pct n = 100. *. float_of_int n /. float_of_int (max 1 r.universe) in
  Format.fprintf ppf
    "@[<v>Transition-delay faults (universe %d)@,\
     \  Scan     %8d  %5.1f%%@,\
     \  Debug    %8d  %5.1f%%  (%d control + %d observation)@,\
     \  Memory   %8d  %5.1f%%@,\
     \  TOTAL    %8d  %5.1f%%  (+ %d baseline)@,\
     analysis time: %.3f s@]"
    r.universe r.scan (pct r.scan)
    (r.debug_control + r.debug_observe)
    (pct (r.debug_control + r.debug_observe))
    r.debug_control r.debug_observe r.memory (pct r.memory)
    (r.scan + r.debug_control + r.debug_observe + r.memory)
    (pct (r.scan + r.debug_control + r.debug_observe + r.memory))
    r.baseline r.seconds
