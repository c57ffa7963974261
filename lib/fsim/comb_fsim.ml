open Olfu_logic
open Olfu_netlist
open Olfu_fault
module Lanes = Olfu_sim.Lanes
module A1 = Bigarray.Array1
module Pool = Olfu_pool.Pool
module Trace = Olfu_obs.Trace

type pattern = Logic4.t array
type engine = Cone | Full_settle

let random_patterns ?(seed = 0) nl n =
  let rng = Random.State.make [| seed |] in
  let width = Array.length (Analysis.sources (Analysis.get nl)) in
  Array.init n (fun _ ->
      Array.init width (fun _ -> Logic4.of_bool (Random.State.bool rng)))

type report = { patterns : int; detected : int; possibly : int }

let ( &. ) = Int64.logand
let ( |. ) = Int64.logor
let ( ^. ) = Int64.logxor

let words n =
  let a = A1.create Bigarray.int64 Bigarray.c_layout n in
  A1.fill a 0L;
  a

(* The batch's good machine, settled once, and the capture of every flop
   (node-indexed), computed once. *)
type good = { g : Lanes.state; cap_hi : Lanes.words; cap_lo : Lanes.words }

(* One pool worker: a copy of the good state into which one fault at a
   time is forced, the faulty capture of one flop, and the detected /
   possibly-detected lanes of the current fault. *)
type worker = {
  st : Lanes.state;
  scratch : Analysis.Scratch.t;
  fcap_hi : Lanes.words;
  fcap_lo : Lanes.words;
  acc : Lanes.words;  (* 0: detected lanes, 1: possibly detected *)
}

(* Detected where good and faulty are both binary and differ; possibly
   detected where good is binary and faulty X. *)
let[@inline] observe w gh gl fh fl =
  let bin_g = Int64.lognot (gh &. gl) and bin_f = Int64.lognot (fh &. fl) in
  A1.unsafe_set w.acc 0
    (A1.unsafe_get w.acc 0 |. (bin_g &. bin_f &. ((gh ^. fh) |. (gl ^. fl))));
  A1.unsafe_set w.acc 1 (A1.unsafe_get w.acc 1 |. (bin_g &. Int64.lognot bin_f))

let observe_node good w i =
  observe w
    (A1.unsafe_get (Lanes.hi good.g) i)
    (A1.unsafe_get (Lanes.lo good.g) i)
    (A1.unsafe_get (Lanes.hi w.st) i)
    (A1.unsafe_get (Lanes.lo w.st) i)

let observe_capture good w s =
  Lanes.capture w.st s ~hi:w.fcap_hi ~lo:w.fcap_lo 0;
  observe w (A1.get good.cap_hi s) (A1.get good.cap_lo s) (A1.get w.fcap_hi 0)
    (A1.get w.fcap_lo 0)

let differs good w i =
  A1.unsafe_get (Lanes.hi w.st) i <> A1.unsafe_get (Lanes.hi good.g) i
  || A1.unsafe_get (Lanes.lo w.st) i <> A1.unsafe_get (Lanes.lo good.g) i

let restore good w i =
  A1.unsafe_set (Lanes.hi w.st) i (A1.unsafe_get (Lanes.hi good.g) i);
  A1.unsafe_set (Lanes.lo w.st) i (A1.unsafe_get (Lanes.lo good.g) i)

(* Re-evaluate the fanout cone of [d], whose value differs from the good
   one, up to the last schedule position a live difference can still
   reach; observe the cone's outputs and captures; put the walked nodes
   back. *)
let walk_cone an good w obs_out observe_captures d =
  let c = Analysis.cone an w.scratch d in
  let sched = c.Analysis.sched and last_sink = c.Analysis.last_sink in
  let last = ref c.Analysis.stem_last in
  let k = ref 0 in
  while !k < Array.length sched && !k <= !last do
    let i = sched.(!k) in
    Lanes.eval w.st i;
    if differs good w i && last_sink.(!k) > !last then last := last_sink.(!k);
    incr k
  done;
  Array.iter (fun o -> if obs_out.(o) then observe_node good w o) c.Analysis.outs;
  if observe_captures then Array.iter (observe_capture good w) c.Analysis.seqs;
  for j = 0 to !k - 1 do
    restore good w sched.(j)
  done

(* Force [f] in all 64 lanes of the worker's state and accumulate its
   detected / possibly-detected lanes in [w.acc]. *)
let eval_fault an engine good w ~outs ~seqs obs_out observe_captures
    (f : Fault.t) =
  let nl = Analysis.netlist an in
  A1.unsafe_set w.acc 0 0L;
  A1.unsafe_set w.acc 1 0L;
  let { Fault.node; pin } = f.Fault.site in
  match (pin, Netlist.kind nl node) with
  | Cell.Pin.Clk, _ -> () (* no combinational meaning *)
  | Cell.Pin.Out, (Cell.Tie0 | Cell.Tie1 | Cell.Tiex) ->
    () (* a tie's stem fault never acts *)
  | _, kind ->
    Lanes.inject w.st ~node pin ~lanes:(-1L) ~stuck:f.Fault.stuck;
    (match engine with
    | Full_settle ->
      Lanes.settle w.st;
      Array.iter (observe_node good w) outs;
      if observe_captures then Array.iter (observe_capture good w) seqs
    | Cone -> (
      match pin with
      | Cell.Pin.In _ when Cell.is_seq kind ->
        (* the only batch-local effect is this flop's capture *)
        if observe_captures then observe_capture good w node
      | _ ->
        Lanes.eval w.st node;
        if differs good w node then begin
          walk_cone an good w obs_out observe_captures node;
          restore good w node
        end));
    Lanes.clear w.st ~node pin

(* Lane [l] of every source holds pattern [base + l]; lanes past the last
   pattern stay X. *)
let load_batch good srcs patterns ~base ~lanes =
  Lanes.reset good.g ~init:Logic4.X;
  Array.iteri
    (fun k src ->
      let hi = ref (-1L) and lo = ref (-1L) in
      for l = 0 to lanes - 1 do
        let m = Int64.lognot (Int64.shift_left 1L l) in
        match patterns.(base + l).(k) with
        | Logic4.L0 -> hi := !hi &. m
        | Logic4.L1 -> lo := !lo &. m
        | Logic4.X | Logic4.Z -> ()
      done;
      Lanes.set_rails good.g src ~hi:!hi ~lo:!lo)
    srcs

let run ?(observe_captures = true) ?(observable_output = fun _ -> true)
    ?(engine = Cone) ?jobs ?(trace = Trace.null) nl fl patterns =
  let jobs =
    match jobs with Some j -> j | None -> Pool.default_jobs ()
  in
  Trace.span trace ~cat:"engine" "fsim" @@ fun () ->
  let an = Analysis.get nl in
  let srcs = Analysis.sources an in
  let n = Netlist.length nl in
  let nfaults = Flist.size fl in
  let seqs = Netlist.seq_nodes nl in
  let outs =
    Array.of_list (List.filter observable_output (Array.to_list (Netlist.outputs nl)))
  in
  let obs_out = Array.make n false in
  Array.iter (fun o -> obs_out.(o) <- true) outs;
  let core = Lanes.compile nl in
  let good = { g = Lanes.create core; cap_hi = words n; cap_lo = words n } in
  let detected = ref 0 and possibly = ref 0 in
  Pool.with_pool ~jobs (fun pool ->
      let nw = Pool.jobs pool in
      (* the per-fault words are padded to 128 bytes, so no two workers'
         share a cache line *)
      let workers =
        Array.init nw (fun _ ->
            {
              st = Lanes.create core;
              scratch = Analysis.Scratch.create an;
              fcap_hi = words 16;
              fcap_lo = words 16;
              acc = words 16;
            })
      in
      (* stride-padded per-worker counters: adjacent slots would
         false-share when every worker bumps its own tally *)
      let stride = 8 in
      let wdet = Array.make (nw * stride) 0
      and wposs = Array.make (nw * stride) 0 in
      (* heavy cones first: the pool's shrinking tail claims absorb the
         skew instead of serializing it *)
      let order =
        Analysis.order_by_cost an
          ~site:(fun k -> (Flist.fault fl k).Fault.site.Fault.node)
          nfaults
      in
      let nbatches = (Array.length patterns + 63) / 64 in
      for batch = 0 to nbatches - 1 do
        let base = batch * 64 in
        let lanes = min 64 (Array.length patterns - base) in
        let live =
          if lanes = 64 then -1L
          else Int64.sub (Int64.shift_left 1L lanes) 1L
        in
        load_batch good srcs patterns ~base ~lanes;
        Lanes.settle good.g;
        if observe_captures then
          Array.iter
            (fun s -> Lanes.capture good.g s ~hi:good.cap_hi ~lo:good.cap_lo s)
            seqs;
        Array.iter (fun w -> Lanes.blit ~src:good.g ~dst:w.st) workers;
        (* Sharding discipline: each fault index is processed by exactly
           one worker per batch; statuses and per-worker counters touch
           disjoint slots, so results are independent of scheduling. *)
        Pool.parallel_chunks pool ~n:nfaults ~chunk:256 ~trace ~label:"fsim"
          (fun ~worker ~lo ~hi ->
            let w = workers.(worker) in
            let nact = ref 0 in
            for k = lo to hi - 1 do
              let fi = order.(k) in
              let st = Flist.status fl fi in
              let f = Flist.fault fl fi in
              let active =
                match st with
                | Status.Not_analyzed | Status.Not_detected
                | Status.Possibly_detected ->
                  f.Fault.site.Fault.pin <> Cell.Pin.Clk
                | _ -> false
              in
              if active then begin
                incr nact;
                eval_fault an engine good w ~outs ~seqs obs_out
                  observe_captures f;
                if A1.get w.acc 0 &. live <> 0L then begin
                  Flist.set_status fl fi Status.Detected;
                  wdet.(worker * stride) <- wdet.(worker * stride) + 1
                end
                else if
                  A1.get w.acc 1 &. live <> 0L
                  && not (Status.equal st Status.Possibly_detected)
                then begin
                  Flist.set_status fl fi Status.Possibly_detected;
                  wposs.(worker * stride) <- wposs.(worker * stride) + 1
                end
              end
            done;
            (* fault dropping is batch-synchronous and index-sharded, so
               the active count is jobs-invariant *)
            if Trace.enabled trace then
              Trace.add trace "fsim.fault_evals" !nact)
      done;
      detected := Array.fold_left ( + ) 0 wdet;
      possibly := Array.fold_left ( + ) 0 wposs);
  if Trace.enabled trace then begin
    Trace.add trace "fsim.patterns" (Array.length patterns);
    Trace.add trace "fsim.batches" ((Array.length patterns + 63) / 64);
    Trace.add trace "fsim.detected" !detected;
    Trace.add trace "fsim.possibly" !possibly
  end;
  { patterns = Array.length patterns; detected = !detected; possibly = !possibly }

let detects nl f pattern =
  let fl = Flist.create nl [| f |] in
  let r = run ~engine:Full_settle ~jobs:1 nl fl [| pattern |] in
  ignore (r : report);
  Status.equal (Flist.status fl 0) Status.Detected
