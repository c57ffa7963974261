open Olfu_fault
open Olfu_atpg
module Trace = Olfu_obs.Trace

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

let run (cfg : Run_config.t) nl mission =
  let { Run_config.jobs; trace; _ } = cfg in
  let t0 = Unix.gettimeofday () in
  let u =
    Trace.span trace ~cat:"engine" "flist" (fun () -> Tdf.universe nl)
  in
  let claimed = Array.make (Array.length u) false in
  let classify_with t =
    (* each index is read and written by exactly one worker, and verdicts
       are pure in (t, fault), so the claims are independent of [jobs] *)
    let n = ref 0 in
    Trace.span trace ~cat:"engine" "classify" (fun () ->
        Olfu_pool.Pool.with_pool ~jobs (fun pool ->
            let nw = Olfu_pool.Pool.jobs pool in
            let walkers =
              Array.init nw (fun _ -> Untestable.make_walker t)
            in
            let wn = Array.make nw 0 in
            Olfu_pool.Pool.parallel_chunks pool ~n:(Array.length u)
              ~chunk:512 ~trace ~label:"tdf_classify"
              (fun ~worker ~lo ~hi ->
                let w = walkers.(worker) in
                for i = lo to hi - 1 do
                  if
                    (not claimed.(i))
                    && Tdf_classify.verdict_with t w u.(i) <> None
                  then begin
                    claimed.(i) <- true;
                    wn.(worker) <- wn.(worker) + 1
                  end
                done);
            Array.iter (fun c -> n := !n + c) wn));
    !n
  in
  let stepped src f = Trace.span trace ~cat:"step" (Flow.source_name src) f in
  (* 1. scan rule: every transition fault on a scan-rule site is dead —
     the SE net never toggles in mission mode, so even the pins whose
     stuck-at-1 is kept cannot launch a transition *)
  let scan =
    stepped Flow.Scan (fun () ->
        let scan_sites =
          Trace.span trace ~cat:"engine" "scan_trace" (fun () ->
              Olfu_manip.Scan_trace.untestable_faults nl)
          |> List.map (fun (f : Fault.t) -> f.Fault.site)
        in
        let site_set = Hashtbl.create 999 in
        List.iter (fun s -> Hashtbl.replace site_set s ()) scan_sites;
        let scan = ref 0 in
        Array.iteri
          (fun i (f : Tdf.t) ->
            if (not claimed.(i)) && Hashtbl.mem site_set f.Tdf.site then begin
              claimed.(i) <- true;
              incr scan
            end)
          u;
        !scan)
  in
  (* 2-5. the stuck-at flow's circuits, in its order *)
  let circuits, _ = Flow.stages cfg nl mission in
  let counts =
    List.map
      (fun (src, analysis) ->
        (src, stepped src (fun () -> classify_with (analysis ()))))
      (Flow.analyses cfg circuits)
  in
  let count src = List.assoc src counts in
  let total = List.fold_left (fun acc (_, n) -> acc + n) scan counts in
  {
    universe = Array.length u;
    scan;
    baseline = count Flow.Baseline;
    debug_control = count Flow.Debug_control;
    debug_observe = count Flow.Debug_observe;
    memory = count Flow.Memory;
    total;
    fraction = float_of_int total /. float_of_int (max 1 (Array.length u));
    seconds = Unix.gettimeofday () -. t0;
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
