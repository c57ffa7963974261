open Olfu_logic
open Olfu_netlist
open Olfu_fault
module Pool = Olfu_pool.Pool
module Trace = Olfu_obs.Trace

(* Per-domain walk state: scratch for cone lookups, generation-stamped
   [affected] marks, and a verdict memo.  Never shared between domains. *)
type walker = {
  an : Analysis.t;
  scratch : Analysis.Scratch.t;
  aff : int array;
  mutable agen : int;
  cache : (int, bool) Hashtbl.t;
  iscr : Implic.Scratch.t option;
      (* holds the current per-stem dominator closure *)
  iscr2 : Implic.Scratch.t option;
      (* separate scratch for [Implic.impossible] probes, so they never
         clobber the stem closure kept in [iscr] *)
  dom_lits : (int, int list) Hashtbl.t;
  (* per-stem closure cache over [iscr]: fault lists are ordered (or
     cost-sorted into runs) by site, so consecutive faults share a stem;
     assuming the dominator literals once per stem and rolling back the
     per-fault extension replaces a full re-assume per fault *)
  mutable closure_stem : int;
  mutable closure_ok : bool;
  mutable closure_ck : Implic.checkpoint option;
}

type t = {
  netlist : Netlist.t;
  consts : Ternary.t;
  obs : Observe.t;
  observable_output : int -> bool;
  stem_cache : (int, bool) Hashtbl.t;
  implic : Implic.t option;
  walker : walker;
}

let make_walker ?cache nl implic =
  let an = Analysis.get nl in
  {
    an;
    scratch = Analysis.Scratch.create an;
    aff = Array.make (Netlist.length nl) 0;
    agen = 0;
    cache = (match cache with Some c -> c | None -> Hashtbl.create 997);
    iscr = Option.map Implic.Scratch.create implic;
    iscr2 = Option.map Implic.Scratch.create implic;
    dom_lits = Hashtbl.create 997;
    closure_stem = -1;
    closure_ok = false;
    closure_ck = None;
  }

let analyze ?ff_mode ?(observable_output = fun _ -> true) ?consts
    ?(implic = true) ?learn_depth ?learn_budget ?extra_edges
    ?(trace = Trace.null) nl =
  let _ = Trace.span trace ~cat:"engine" "graph" (fun () -> Analysis.get nl) in
  let consts =
    match consts with
    | Some c -> c
    | None ->
      Trace.span trace ~cat:"engine" "ternary" (fun () ->
          Ternary.run ?ff_mode nl)
  in
  let obs =
    Trace.span trace ~cat:"engine" "observe" (fun () ->
        Observe.run ~observable_output nl ~consts:consts.Ternary.values)
  in
  let stem_cache = Hashtbl.create 997 in
  let implic =
    if implic then
      Some
        (Trace.span trace ~cat:"engine" "implic" (fun () ->
             Implic.build ?learn_depth ?learn_budget ?extra_edges
               ~consts:consts.Ternary.values nl))
    else None
  in
  {
    netlist = nl;
    consts;
    obs;
    observable_output;
    stem_cache;
    implic;
    walker = make_walker ~cache:stem_cache nl implic;
  }

let implication_db t = t.implic

(* Forward propagation of a hypothetical change on stem [d]: a node is
   [affected] when the difference can reach its output; side inputs that
   are themselves affected are fault-correlated, so their fault-free
   constants must not be used to block (Observe.pin_allowed_exempt).
   Only the fanout cone of [d] is walked — nodes outside it can never
   acquire an affected fanin, so the result is the same as a full
   topological sweep. *)
let walk_observable t w ~value d =
  let nl = t.netlist in
  w.agen <- w.agen + 1;
  let g = w.agen in
  let aff = w.aff in
  aff.(d) <- g;
  let exempt i = aff.(i) = g in
  let c = Analysis.cone w.an w.scratch d in
  let hit = ref false in
  (* combinational spread in evaluation order *)
  Array.iter
    (fun i ->
      if not !hit then begin
        let fanin = Netlist.fanin nl i in
        let prop = ref false in
        Array.iteri
          (fun p drv ->
            if (not !prop) && aff.(drv) = g
               && Observe.pin_allowed_gen ~exempt ~value nl i p
            then prop := true)
          fanin;
        if !prop then
          if Cell.equal_kind (Netlist.kind nl i) Cell.Output then begin
            if t.observable_output i then hit := true
          end
          else aff.(i) <- g
      end)
    c.Analysis.sched;
  (* flip-flop capture credit: an affected value latched into state
     counts as observed (matching Observe's through-FF credit) *)
  if not !hit then
    Array.iter
      (fun i ->
        if not !hit then
          Array.iteri
            (fun p drv ->
              if aff.(drv) = g
                 && Observe.pin_allowed_gen ~exempt ~value nl i p
              then hit := true)
            (Netlist.fanin nl i))
      c.Analysis.seqs;
  !hit

let stem_observable_w t w d =
  match Hashtbl.find_opt w.cache d with
  | Some b -> b
  | None ->
    let consts = t.consts.Ternary.values in
    let hit = walk_observable t w ~value:(fun i -> consts.(i)) d in
    Hashtbl.replace w.cache d hit;
    hit

let stuck_value (f : Fault.t) = if f.Fault.stuck then Logic4.L1 else Logic4.L0

(* Value a flip-flop would capture in mission steady state, as a ternary
   constant; X when input-dependent. *)
let captured_const t node =
  let nl = t.netlist in
  let c i = t.consts.Ternary.values.((Netlist.fanin nl node).(i)) in
  match Netlist.kind nl node with
  | Cell.Dff -> c 0
  | Cell.Dffr -> (
    match c 1 with
    | Logic4.L0 -> Logic4.L0
    | Logic4.L1 -> c 0
    | Logic4.X | Logic4.Z ->
      if Logic4.equal (c 0) Logic4.L0 then Logic4.L0 else Logic4.X)
  | Cell.Sdff -> Logic4.mux ~sel:(c 2) ~a:(c 0) ~b:(c 1)
  | Cell.Sdffr -> (
    let captured = Logic4.mux ~sel:(c 2) ~a:(c 0) ~b:(c 1) in
    match c 3 with
    | Logic4.L0 -> Logic4.L0
    | Logic4.L1 -> captured
    | Logic4.X | Logic4.Z ->
      if Logic4.equal captured Logic4.L0 then Logic4.L0 else Logic4.X)
  | _ -> invalid_arg "Untestable.captured_const: not sequential"

let clk_verdict t w node =
  (* A stuck clock freezes the register at its current value.  If the
     register is provably constant and keeps capturing that same constant,
     freezing it is invisible: both clock faults are untestable (Fig. 5). *)
  let q = t.consts.Ternary.values.(node) in
  if
    (not (Observe.net t.obs node))
    && not (stem_observable_w t w node)
  then Some (Status.Undetectable Status.Blocked)
  else if Logic4.is_binary q && Logic4.equal (captured_const t node) q then
    Some (Status.Undetectable Status.Tied)
  else None

(* -------------------------------------------------------------------- *)
(* FIRE-style conflict untestability: compute the assignments every test
   of the fault requires (excitation value, non-controlling side inputs
   of the immediate gate, side inputs of the stem's dominators), close
   them over the static implication database, and classify the fault
   untestable when the closure contradicts itself.  Sound: every literal
   fed to the closure provably holds in the good circuit of any
   detecting frame.                                                     *)
(* -------------------------------------------------------------------- *)

(* Necessary side-input literals for a difference to pass through input
   [p] of [node]: single-literal requirements only (XOR-likes and the
   select pin of a mux have none). *)
let immediate_necessary nl node p acc =
  let fanin = Netlist.fanin nl node in
  let side q v acc' =
    if q <> p then Implic.lit fanin.(q) v :: acc' else acc'
  in
  let all_sides v acc' =
    let r = ref acc' in
    Array.iteri (fun q _ -> r := side q v !r) fanin;
    !r
  in
  match Netlist.kind nl node with
  | Cell.And | Cell.Nand -> all_sides true acc
  | Cell.Or | Cell.Nor -> all_sides false acc
  | Cell.Mux2 ->
    if p = 1 then Implic.lit fanin.(0) false :: acc
    else if p = 2 then Implic.lit fanin.(0) true :: acc
    else acc
  | Cell.Dffr -> if p = 0 then side 1 true acc else acc
  | Cell.Sdff ->
    if p = 0 then side 2 false acc
    else if p = 1 then side 2 true acc
    else acc
  | Cell.Sdffr ->
    if p = 0 then side 3 true (side 2 false acc)
    else if p = 1 then side 3 true (side 2 true acc)
    else if p = 2 then side 3 true acc
    else acc
  | _ -> acc

(* Side inputs of the stem's dominators that provably lie outside the
   stem's own fanout cone: any test must hold them non-controlling (the
   difference has to pass through every dominator, and a fault-free side
   input at a controlling value kills it).  Cone membership is decided by
   topological position alone — [topo_pos f < topo_pos stem] puts [f]
   strictly before anything the stem can reach — so the collection never
   touches the cone schedule; side inputs the cheap test cannot clear are
   conservatively skipped. *)
let dominator_lits t w stem =
  let doms = Analysis.stem_dominators w.an w.scratch stem in
  if Array.length doms = 0 then []
  else begin
    let nl = t.netlist in
    let pos = Analysis.topo_pos w.an in
    (* sources (position -1) never appear inside a cone schedule, and a
       node scheduled before the stem cannot be downstream of it *)
    let outside f =
      f <> stem && (pos.(f) = -1 || pos.(f) < pos.(stem))
    in
    let acc = ref [] in
    Array.iter
      (fun gn ->
        let fanin = Netlist.fanin nl gn in
        match Netlist.kind nl gn with
        | Cell.And | Cell.Nand ->
          Array.iter
            (fun d ->
              if outside d then acc := Implic.lit d true :: !acc)
            fanin
        | Cell.Or | Cell.Nor ->
          Array.iter
            (fun d ->
              if outside d then acc := Implic.lit d false :: !acc)
            fanin
        | Cell.Mux2 ->
          (* the difference reaches this dominator through some fanin; if
             the select and one data pin are provably fault-free, it must
             enter through the other data pin, so the select is forced *)
          let s_ = fanin.(0) and a = fanin.(1) and b = fanin.(2) in
          if outside s_ then
            if outside b && not (outside a) then
              acc := Implic.lit s_ false :: !acc
            else if outside a && not (outside b) then
              acc := Implic.lit s_ true :: !acc
        | _ -> ())
      doms;
    !acc
  end

(* per-walker memo: the dominator literals are a pure per-stem fact *)
let dominator_necessary t w stem acc =
  let lits =
    match Hashtbl.find_opt w.dom_lits stem with
    | Some l -> l
    | None ->
      let l = dominator_lits t w stem in
      Hashtbl.add w.dom_lits stem l;
      l
  in
  List.rev_append lits acc

(* Conflicts are local: a small closure finds almost all of them, and a
   budget-capped closure stays sound (it can only miss conflicts).  It
   stays below [Implic.impossible]'s budget, which lets an output-pin
   fault without dominator literals skip its closure. *)
let conflict_closure_budget = 128

let conflict_verdict t w (f : Fault.t) =
  match (t.implic, w.iscr, w.iscr2) with
  | Some db, Some iscr, Some iscr2 -> (
    let nl = t.netlist in
    let { Fault.node; pin } = f.Fault.site in
    match pin with
    | Cell.Pin.Clk -> None
    | Cell.Pin.Out | Cell.Pin.In _ ->
      let exc_v = not f.Fault.stuck in
      let exc_net =
        match pin with
        | Cell.Pin.In p -> (Netlist.fanin nl node).(p)
        | _ -> node
      in
      if Implic.impossible db iscr2 exc_net exc_v then
        Some (Status.Undetectable Status.Conflict)
      else begin
        (* The dominator side-input literals are a pure per-stem fact:
           close them once per stem in [iscr], checkpoint the drained
           closure, and per fault extend + roll back — instead of
           re-assuming the whole set for every fault at the stem.
           The verdict stays pure in (t, fault): the closure is rebuilt
           deterministically whenever the stem changes. *)
        if w.closure_stem <> node then begin
          w.closure_stem <- node;
          w.closure_ck <- None;
          (* most stems have no dominator literals at all (the tcore
             configurations measure ~70%) — for those a per-fault plain
             [assume] beats paying checkpoint/rollback bookkeeping, so a
             stem closure is only built and shared when it is non-empty *)
          let dl = dominator_necessary t w node [] in
          w.closure_ok <-
            dl = []
            || Implic.assume ~budget:conflict_closure_budget db iscr dl;
          if w.closure_ok && dl <> [] then begin
            (* replenish before the snapshot: rollback restores the
               checkpointed budget, so every fault's extension runs on a
               full budget regardless of what the stem closure spent —
               at least as strong as closing seeds + dominators per
               fault under one shared budget *)
            Implic.set_budget iscr conflict_closure_budget;
            w.closure_ck <- Some (Implic.checkpoint iscr)
          end
        end;
        if not w.closure_ok then
          (* assignments necessary for any fault at this stem already
             contradict *)
          Some (Status.Undetectable Status.Conflict)
        else begin
          (* per-fault literals every detecting frame requires *)
          let seeds = ref [ Implic.lit exc_net exc_v ] in
          (match pin with
          | Cell.Pin.In p -> (
            seeds := immediate_necessary nl node p !seeds;
            (* forced good output of the immediate gate, when it is a
               single literal given excitation + necessary sides *)
            match Netlist.kind nl node with
            | Cell.And | Cell.Or -> seeds := Implic.lit node exc_v :: !seeds
            | Cell.Nand | Cell.Nor ->
              seeds := Implic.lit node (not exc_v) :: !seeds
            | Cell.Mux2 when p = 1 || p = 2 ->
              seeds := Implic.lit node exc_v :: !seeds
            | _ -> ())
          | _ -> ());
          let ok =
            match (w.closure_ck, pin) with
            | None, Cell.Pin.Out ->
              (* the one seed is the excitation literal, whose closure
                 [Implic.impossible] just drained on a larger budget
                 without a contradiction: a breadth-first closure from
                 one seed on a smaller budget marks a prefix of those
                 literals, so it cannot contradict either *)
              true
            | None, _ ->
              Implic.assume ~budget:conflict_closure_budget db iscr !seeds
            | Some ck, _ ->
              (* extend on the budget the stem closure left over
                 (rollback restores it), so each fault at the stem sees
                 the same deterministic state *)
              let ok = Implic.extend db iscr !seeds in
              Implic.rollback iscr ck;
              ok
          in
          if not ok then Some (Status.Undetectable Status.Conflict) else None
        end
      end)
  | _ -> None

let structural_verdict_w t w (f : Fault.t) =
  let nl = t.netlist in
  let { Fault.node; pin } = f.Fault.site in
  match pin with
  | Cell.Pin.Clk -> clk_verdict t w node
  | Cell.Pin.Out ->
    let c = t.consts.Ternary.values.(node) in
    if Logic4.is_binary c && Logic4.equal c (stuck_value f) then
      Some (Status.Undetectable Status.Tied)
    else if
      (not (Observe.net t.obs node))
      && not (stem_observable_w t w node)
    then Some (Status.Undetectable Status.Blocked)
    else None
  | Cell.Pin.In p ->
    let drv = (Netlist.fanin nl node).(p) in
    let c = t.consts.Ternary.values.(drv) in
    if Logic4.is_binary c && Logic4.equal c (stuck_value f) then
      Some (Status.Undetectable Status.Tied)
    else if Observe.branch t.obs node p then None
      (* the global analysis is a sound filter only in this direction;
         confirm a blocked verdict precisely: the fault enters through this
         single pin (side constants of the immediate gate are fault-free,
         so plain blocking applies), and from the sink's output onward it
         is a stem change *)
    else begin
      let through_gate =
        Observe.pin_allowed nl t.consts.Ternary.values node p
      in
      let downstream =
        match Netlist.kind nl node with
        | Cell.Output -> t.observable_output node
        | k when Cell.is_seq k -> true (* capture credit *)
        | _ -> stem_observable_w t w node
      in
      if through_gate && downstream then None
      else Some (Status.Undetectable Status.Blocked)
    end

let verdict_w t w f =
  match structural_verdict_w t w f with
  | Some v -> Some v
  | None -> conflict_verdict t w f

let fault_verdict t f = verdict_w t t.walker f

let classify ?jobs ?(trace = Trace.null) t fl =
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  let nf = Flist.size fl in
  let changed = ref 0 in
  Trace.span trace ~cat:"engine" "classify" (fun () ->
      Pool.with_pool ~jobs (fun pool ->
          let nw = Pool.jobs pool in
          (* verdicts are pure in (t, fault); per-worker walkers only
             memoize, and each fault index is written by exactly one
             worker, so the outcome is independent of jobs.  Worker 0
             reuses [t]'s walker to keep the sequential path warming
             [t.stem_cache] as before. *)
          let walkers =
            Array.init nw (fun k ->
                if k = 0 then t.walker else make_walker t.netlist t.implic)
          in
          (* stride-padded per-worker tallies (no false sharing) *)
          let stride = 8 in
          let wchanged = Array.make (nw * stride) 0 in
          (* heavy cones first, same-site runs kept contiguous, so the
             per-stem closure and one-entry cone caches keep hitting *)
          let order =
            Analysis.order_by_cost t.walker.an
              ~site:(fun k -> (Flist.fault fl k).Fault.site.Fault.node)
              nf
          in
          Pool.parallel_chunks pool ~n:nf ~chunk:512 ~trace ~label:"classify"
            (fun ~worker ~lo ~hi ->
              let w = walkers.(worker) in
              let nexam = ref 0 in
              for k = lo to hi - 1 do
                let i = order.(k) in
                match Flist.status fl i with
                | Status.Not_analyzed | Status.Not_detected -> (
                  incr nexam;
                  match verdict_w t w (Flist.fault fl i) with
                  | Some v ->
                    Flist.set_status fl i v;
                    wchanged.(worker * stride) <- wchanged.(worker * stride) + 1
                  | None -> ())
                | _ -> ()
              done;
              if Trace.enabled trace then
                Trace.add trace ~worker "classify.examined" !nexam);
          changed := Array.fold_left ( + ) 0 wchanged));
  Trace.add trace "classify.faults" nf;
  Trace.add trace "classify.classified" !changed;
  !changed
