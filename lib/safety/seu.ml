open Olfu_netlist
module S = Olfu_sat.Solver
module CB = Olfu_atpg.Cnf.Builder
module Bmc = Olfu_atpg.Bmc
module Pool = Olfu_pool.Pool
module Trace = Olfu_obs.Trace

type ff_result = { ff : int; cls : Taxonomy.seu_class; structural : bool }

(* SAT budget of each query; an exhausted budget is the [Seu_unknown]
   verdict. *)
let conflict_limit = 50_000

type report = {
  window : int;
  total_ffs : int;
  results : ff_result array;
  masked : int;
  protected_ : int;
  vulnerable : int;
  unknown : int;
}

let contains s sub =
  let ls = String.length s and lb = String.length sub in
  let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
  go 0

let default_alarm nl o =
  match Netlist.name nl o with
  | None -> false
  | Some n ->
    let n = String.lowercase_ascii n in
    contains n "alarm" || contains n "parity" || contains n "err"
    || contains n "chk"

(* Over-approximate bounded observability: can a difference seeded at the
   flop reach a functional observation within [window] cycles?
   Combinational spread ignores controlling side inputs — a superset of
   every path the SAT encoding can sensitize — so "no" soundly means
   masked without touching the solver. *)
let reaches_observation nl ~window ~func_outs ff =
  let n = Netlist.length nl in
  let mark = Array.make n false in
  let seqs = Netlist.seq_nodes nl in
  let topo = Netlist.topo nl in
  let frontier = ref [ ff ] in
  let hit = ref false in
  let c = ref 0 in
  while (not !hit) && !frontier <> [] && !c < window do
    incr c;
    Array.fill mark 0 n false;
    List.iter (fun i -> mark.(i) <- true) !frontier;
    Array.iter
      (fun i ->
        if
          (not mark.(i))
          && Array.exists (fun d -> mark.(d)) (Netlist.fanin nl i)
        then mark.(i) <- true)
      topo;
    if List.exists (fun o -> mark.(o)) func_outs then hit := true
    else begin
      let next = ref [] in
      Array.iter
        (fun s ->
          if Array.exists (fun d -> mark.(d)) (Netlist.fanin nl s) then
            next := s :: !next)
        seqs;
      frontier := !next
    end
  done;
  !hit

(* Two-copy bounded encoding on the full mission machine.  Encoding
   each flop's certified backward slice instead gave the same verdicts
   but ran 1.2-2.1x slower on every core, window and sample size
   measured (hard slices keep about half the flops). *)
let encode ~window ~invariants nl ~ff ~func_outs ~alarm_outs =
  let s = S.create () in
  let b = CB.create s in
  let frames = Bmc.frames b nl window in
  let init = Bmc.reset_state b nl in
  (* reachable-state prefilter: the pre-upset state satisfies every
     proved invariant, so cycle 0 ranges over the invariant
     over-approximation of the reachable set instead of all 2^n
     states (the flipped copy is that state with one bit inverted —
     deliberately off-manifold) *)
  List.iter
    (fun l -> S.add_clause s [ l ])
    (Olfu_invar.Invar.state_literals b ~state_of:(Bmc.state_lit init)
       invariants);
  let func_diffs = ref [] and alarm_diffs = ref [] in
  (* the upset machine: identical, except the target flop starts
     inverted — a single bit-flip latched just before cycle 0 *)
  Bmc.unroll2 b nl ~frames ~good:init ~bad:(Bmc.flip init ff)
    ~observe:(fun glit flit ->
      let observe outs sink =
        List.iter
          (fun o ->
            let d = (Netlist.fanin nl o).(0) in
            let x = CB.mk_xor2 b (glit d) (flit d) in
            if not (CB.is_false b x) then sink := x :: !sink)
          outs
      in
      observe func_outs func_diffs;
      observe alarm_outs alarm_diffs);
  match !func_diffs with
  | [] -> Taxonomy.Seu_masked
  | ds -> (
    S.add_clause s ds;
    (* First ask for a diverging trace with every alarm silent; only if
       none exists, ask whether divergence is possible at all.  The
       functional-divergence clause is permanent; the alarm silence is
       assumptions, so one incremental solver answers both. *)
    let silent = List.map (fun d -> -d) !alarm_diffs in
    match S.solve ~assumptions:silent ~conflict_limit s with
    | S.Sat _ -> Taxonomy.Seu_vulnerable
    | S.Unknown -> Taxonomy.Seu_unknown
    | S.Unsat -> (
      if silent = [] then Taxonomy.Seu_masked
      else
        match S.solve ~conflict_limit s with
        | S.Sat _ -> Taxonomy.Seu_protected
        | S.Unsat -> Taxonomy.Seu_masked
        | S.Unknown -> Taxonomy.Seu_unknown))

let check_window fn window =
  if window < 1 then
    invalid_arg (Printf.sprintf "Seu.%s: window %d < 1" fn window)

let classify_ff ?(window = 4) ?(observable_output = fun _ -> true)
    ?(invariants = []) nl ff =
  check_window "classify_ff" window;
  if not (Cell.is_seq (Netlist.kind nl ff)) then
    invalid_arg "Seu.classify_ff: not a sequential node";
  let alarm = default_alarm nl in
  let func_outs =
    Array.to_list (Netlist.outputs nl)
    |> List.filter (fun o -> observable_output o && not (alarm o))
  in
  let alarm_outs =
    Array.to_list (Netlist.outputs nl)
    |> List.filter (fun o -> observable_output o && alarm o)
  in
  if not (reaches_observation nl ~window ~func_outs ff) then
    { ff; cls = Taxonomy.Seu_masked; structural = true }
  else
    let cls = encode ~window ~invariants nl ~ff ~func_outs ~alarm_outs in
    { ff; cls; structural = false }

let sample_ffs ~limit seqs =
  let total = Array.length seqs in
  if limit <= 0 || limit >= total then Array.copy seqs
  else Array.init limit (fun k -> seqs.(k * total / limit))

let run ?(window = 4) ?(limit = 0) ?jobs ?(trace = Trace.null)
    ?(observable_output = fun _ -> true) ?(invariants = []) nl =
  check_window "run" window;
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  let seqs = Netlist.seq_nodes nl in
  let sample = sample_ffs ~limit seqs in
  let n = Array.length sample in
  let results =
    Array.make n { ff = -1; cls = Taxonomy.Seu_unknown; structural = false }
  in
  Trace.span trace ~cat:"engine" "seu" (fun () ->
      Pool.with_pool ~jobs (fun pool ->
          (* one flop per chunk: each index writes its own slot, so the
             report is identical for any [jobs].  A chunk here is an
             entire bounded model-check, and the pool hands the next
             flop to whichever worker asks first (no fixed pre-split),
             so the skewed per-flop costs cannot serialize behind one
             worker *)
          Pool.parallel_chunks pool ~n ~chunk:1 ~trace ~label:"seu"
            (fun ~worker:_ ~lo ~hi ->
              for k = lo to hi - 1 do
                results.(k) <-
                  classify_ff ~window ~observable_output ~invariants
                    nl sample.(k)
              done)));
  let count c =
    Array.fold_left
      (fun acc r -> if r.cls = c then acc + 1 else acc)
      0 results
  in
  let r =
    {
      window;
      total_ffs = Array.length seqs;
      results;
      masked = count Taxonomy.Seu_masked;
      protected_ = count Taxonomy.Seu_protected;
      vulnerable = count Taxonomy.Seu_vulnerable;
      unknown = count Taxonomy.Seu_unknown;
    }
  in
  if Trace.enabled trace then begin
    Trace.add trace "seu.checked" n;
    Trace.add trace "seu.masked" r.masked;
    Trace.add trace "seu.protected" r.protected_;
    Trace.add trace "seu.vulnerable" r.vulnerable;
    Trace.add trace "seu.unknown" r.unknown
  end;
  r
