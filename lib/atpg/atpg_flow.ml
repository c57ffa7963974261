open Olfu_logic
open Olfu_netlist
open Olfu_fault
module Trace = Olfu_obs.Trace

type config = { seed : int; backtrack_limit : int; trace : Trace.sink }

let default = { seed = 1; backtrack_limit = 2_000; trace = Trace.null }

(* phase 1 draws batches of [random_batch] patterns, at most
   [max_random_batches] of them; phase 3 gives the SAT prover
   [sat_conflict_limit] conflicts per PODEM abort *)
let random_batch = 64
let max_random_batches = 32
let sat_conflict_limit = 50_000

type result = {
  patterns : Olfu_fsim.Comb_fsim.pattern list;
  detected : int;
  static_pruned : int;
  proved_untestable : int;
  aborted : int;
  random_patterns : int;
  sat_settled : int;
  seconds : float;
}

let active st =
  match (st : Status.t) with
  | Status.Not_analyzed | Status.Not_detected -> true
  | _ -> false

let run { seed; backtrack_limit; trace } nl fl =
  let t0 = Unix.gettimeofday () in
  let guide = Trace.span trace ~cat:"engine" "scoap" (fun () -> Scoap.run nl) in
  let rng = Random.State.make [| seed |] in
  let srcs = Array.append (Netlist.inputs nl) (Netlist.seq_nodes nl) in
  let patterns = ref [] in
  let random_patterns = ref 0 in
  (* phase 0: static untestability proofs (ternary + implication engine)
     so the search phases never target a provably dead fault.  [Cut]
     ff_mode matches the per-frame combinational model the pattern
     engines use; every phase observes every output and every capture,
     which the walker's through-FF credit needs to be sound *)
  let static_pruned =
    Trace.span trace ~cat:"step" "static prune" (fun () ->
        Untestable.classify ~trace
          (Untestable.analyze ~ff_mode:Ternary.Cut ~trace nl)
          fl)
  in
  (* phase 1: random patterns with fault dropping *)
  Trace.span trace ~cat:"step" "random patterns" (fun () ->
      let exhausted = ref false in
      let batches = ref 0 in
      while (not !exhausted) && !batches < max_random_batches do
        incr batches;
        let batch =
          Array.init random_batch (fun _ ->
              Array.map
                (fun _ -> Logic4.of_bool (Random.State.bool rng))
                srcs)
        in
        let r = Olfu_fsim.Comb_fsim.run ~trace nl fl batch in
        if r.Olfu_fsim.Comb_fsim.detected = 0 then exhausted := true
        else begin
          (* keep the batch: simple (non-minimal) pattern retention *)
          Array.iter (fun p -> patterns := p :: !patterns) batch;
          random_patterns := !random_patterns + random_batch
        end
      done);
  (* phase 2: PODEM for the survivors.  Per-target search times are
     accumulated and recorded as one "podem" engine span so the manifest
     attribution stays flat (fsim replays keep their own spans). *)
  let proved = ref 0 and aborted = ref 0 in
  let podem_s = ref 0. and podem_runs = ref 0 in
  Trace.span trace ~cat:"step" "podem" (fun () ->
      Flist.iteri
        (fun i f st ->
          if active st && f.Fault.site.Fault.pin <> Cell.Pin.Clk then begin
            let ts = Trace.now trace in
            let outcome = Podem.run ~backtrack_limit ~guide nl f in
            podem_s := !podem_s +. (Trace.now trace -. ts);
            incr podem_runs;
            match outcome with
            | Podem.Test assignment ->
              let p =
                Array.map
                  (fun s ->
                    match List.assoc_opt s assignment with
                    | Some b -> Logic4.of_bool b
                    | None -> Logic4.of_bool (Random.State.bool rng))
                  srcs
              in
              (* fault-simulate the new pattern: it may catch several *)
              let sub = Flist.create nl [| f |] in
              ignore
                (Olfu_fsim.Comb_fsim.run ~trace nl sub [| p |]
                  : Olfu_fsim.Comb_fsim.report);
              if Status.equal (Flist.status sub 0) Status.Detected then begin
                patterns := p :: !patterns;
                ignore
                  (Olfu_fsim.Comb_fsim.run ~trace nl fl [| p |]
                    : Olfu_fsim.Comb_fsim.report);
                (* ensure the target itself is marked even if PT-shadowed *)
                Flist.set_status fl i Status.Detected
              end
              else begin
                (* X-masking kept the oracle from confirming; count as
                   abort *)
                incr aborted;
                Flist.set_status fl i Status.Atpg_untestable
              end
            | Podem.Proved_untestable ->
              incr proved;
              Flist.set_status fl i (Status.Undetectable Status.Redundant)
            | Podem.Aborted ->
              incr aborted;
              Flist.set_status fl i Status.Atpg_untestable
          end)
        fl);
  if Trace.enabled trace && !podem_runs > 0 then begin
    Trace.record trace ~cat:"engine" ~dur:!podem_s "podem";
    Trace.add trace "podem.targets" !podem_runs
  end;
  (* phase 3: complete SAT prover for the aborts *)
  let sat_settled = ref 0 in
  let sat_s = ref 0. and sat_runs = ref 0 in
  Trace.span trace ~cat:"step" "sat" (fun () ->
      Flist.iteri
        (fun i f st ->
          if Status.equal st Status.Atpg_untestable then begin
            let ts = Trace.now trace in
            let outcome =
              Sat_atpg.run ~conflict_limit:sat_conflict_limit nl f
            in
            sat_s := !sat_s +. (Trace.now trace -. ts);
            incr sat_runs;
            match outcome with
            | Sat_atpg.Test assignment ->
              incr sat_settled;
              decr aborted;
              let p =
                Array.map
                  (fun s ->
                    match List.assoc_opt s assignment with
                    | Some b -> Logic4.of_bool b
                    | None -> Logic4.of_bool (Random.State.bool rng))
                  srcs
              in
              patterns := p :: !patterns;
              Flist.set_status fl i Status.Detected;
              ignore
                (Olfu_fsim.Comb_fsim.run ~trace nl fl [| p |]
                  : Olfu_fsim.Comb_fsim.report)
            | Sat_atpg.Untestable ->
              incr sat_settled;
              decr aborted;
              incr proved;
              Flist.set_status fl i (Status.Undetectable Status.Redundant)
            | Sat_atpg.Unknown -> ()
          end)
        fl);
  if Trace.enabled trace && !sat_runs > 0 then begin
    Trace.record trace ~cat:"engine" ~dur:!sat_s "sat";
    Trace.add trace "sat.targets" !sat_runs
  end;
  if Trace.enabled trace then begin
    Trace.add trace "atpg.static_pruned" static_pruned;
    Trace.add trace "atpg.proved_untestable" !proved;
    Trace.add trace "atpg.sat_settled" !sat_settled;
    Trace.add trace "atpg.patterns" (List.length !patterns)
  end;
  {
    patterns = List.rev !patterns;
    detected = Flist.count_status fl Status.Detected;
    static_pruned;
    proved_untestable = !proved;
    aborted = !aborted;
    random_patterns = !random_patterns;
    sat_settled = !sat_settled;
    seconds = Unix.gettimeofday () -. t0;
  }

let compact nl patterns =
  let fl = Flist.full nl in
  let kept = ref [] in
  List.iter
    (fun p ->
      let r = Olfu_fsim.Comb_fsim.run nl fl [| p |] in
      if r.Olfu_fsim.Comb_fsim.detected > 0 then kept := p :: !kept)
    (List.rev patterns);
  !kept

let pp ppf r =
  Format.fprintf ppf
    "@[<v>patterns: %d (%d random + %d targeted)@,detected: %d@,statically \
     pruned: %d@,proved redundant: %d@,sat-settled: %d@,unresolved: \
     %d@,time: %.2f s@]"
    (List.length r.patterns) r.random_patterns
    (List.length r.patterns - r.random_patterns)
    r.detected r.static_pruned r.proved_untestable r.sat_settled r.aborted
    r.seconds
