open Olfu_logic
open Olfu_netlist
open Olfu_fault
module Lanes = Olfu_sim.Lanes
module Pool = Olfu_pool.Pool
module Trace = Olfu_obs.Trace

type step = { assign : (int * Logic4.t) list; strobe : bool }
type stimulus = step array

type report = {
  cycles : int;
  faults_simulated : int;
  detected : int;
  possibly : int;
}

(* Replay [stimulus] on [st] from its current state: drive each step's
   inputs, settle, let [strobe] compare, clock. *)
let replay st stimulus ~strobe =
  Array.iter
    (fun step ->
      List.iter (fun (i, v) -> Lanes.set_input st i v) step.assign;
      Lanes.settle st;
      if step.strobe then strobe ();
      Lanes.clock st)
    stimulus

let observed nl p =
  Array.of_list (List.filter p (Array.to_list (Netlist.outputs nl)))

let run ?(init = Logic4.X) ?(observe = fun _ -> true) ?jobs
    ?(trace = Trace.null) nl fl stimulus =
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  Trace.span trace ~cat:"engine" "fsim" @@ fun () ->
  let outs = observed nl observe in
  let active =
    Array.of_list
      (Flist.indices fl ~f:(fun st ->
           match st with
           | Status.Not_analyzed | Status.Not_detected
           | Status.Possibly_detected ->
             true
           | _ -> false))
  in
  let nactive = Array.length active in
  (* lanes 1..63 of batch [b] carry faults [63b ..], in [active] order *)
  let batch_faults =
    Array.init ((nactive + 62) / 63) (fun b ->
        Array.sub active (63 * b) (min 63 (nactive - (63 * b))))
  in
  (* One 63-fault batch per unit of parallel work: a fault index lives in
     exactly one lane of one batch, so concurrent workers write disjoint
     status slots and the merge is order-independent.  A batch writes its
     own faults' masks into its worker's core and clears exactly those
     afterwards. *)
  let run_batch st ~wdet ~wposs faults =
    Array.iteri
      (fun k fi ->
        let { Fault.site = { node; pin }; stuck } = Flist.fault fl fi in
        Lanes.inject st ~node pin ~lanes:(Int64.shift_left 1L (k + 1)) ~stuck)
      faults;
    Lanes.reset st ~init;
    replay st stimulus ~strobe:(fun () -> Lanes.strobe st outs ~into:0);
    Array.iter
      (fun fi ->
        let { Fault.site = { node; pin }; _ } = Flist.fault fl fi in
        Lanes.clear st ~node pin)
      faults;
    Array.iteri
      (fun k fi ->
        let lane = k + 1 in
        if Lanes.differs st ~into:0 lane then begin
          Flist.set_status fl fi Status.Detected;
          incr wdet
        end
        else if
          Lanes.unknown st ~into:0 lane
          && not (Status.equal (Flist.status fl fi) Status.Possibly_detected)
        then begin
          Flist.set_status fl fi Status.Possibly_detected;
          incr wposs
        end)
      faults
  in
  let detected = ref 0 and possibly = ref 0 in
  let core = Lanes.compile nl in
  Pool.with_pool ~jobs (fun pool ->
      let nw = Pool.jobs pool in
      let wdet = Array.init nw (fun _ -> ref 0) in
      let wposs = Array.init nw (fun _ -> ref 0) in
      let states = Array.init nw (fun _ -> Lanes.create core) in
      Pool.parallel_chunks pool ~n:(Array.length batch_faults) ~chunk:1
        ~trace ~label:"seq_fsim"
        (fun ~worker ~lo ~hi ->
          for k = lo to hi - 1 do
            run_batch states.(worker) ~wdet:wdet.(worker)
              ~wposs:wposs.(worker) batch_faults.(k)
          done);
      Array.iter (fun r -> detected := !detected + !r) wdet;
      Array.iter (fun r -> possibly := !possibly + !r) wposs);
  if Trace.enabled trace then begin
    Trace.add trace "fsim.seq_batches" (Array.length batch_faults);
    Trace.add trace "fsim.cycles" (Array.length stimulus);
    Trace.add trace "fsim.fault_evals" nactive;
    Trace.add trace "fsim.detected" !detected;
    Trace.add trace "fsim.possibly" !possibly
  end;
  {
    cycles = Array.length stimulus;
    faults_simulated = nactive;
    detected = !detected;
    possibly = !possibly;
  }

(* ------------------------------------------------------------------ *)
(* Transient (SEU) replay: lanes carry bit-flips, not stuck-ats       *)
(* ------------------------------------------------------------------ *)

type seu_obs = { seu_ff : int; seu_diverged : bool; seu_alarmed : bool }

let run_seu ?(init = Logic4.L0) ?(observe = fun _ -> true)
    ?(alarm = fun _ -> false) nl ~ffs stimulus =
  Array.iter
    (fun ff ->
      if not (Cell.is_seq (Netlist.kind nl ff)) then
        invalid_arg "Seq_fsim.run_seu: not a sequential node")
    ffs;
  let func_outs = observed nl (fun o -> observe o && not (alarm o)) in
  let alarm_outs = observed nl (fun o -> observe o && alarm o) in
  let st = Lanes.create (Lanes.compile nl) in
  let results =
    Array.map
      (fun ff -> { seu_ff = ff; seu_diverged = false; seu_alarmed = false })
      ffs
  in
  (* batch [b]: lane 0 is the undisturbed machine, lane [1 + k - lo]
     starts with ffs.(k) flipped and is otherwise identical *)
  for b = 0 to ((Array.length ffs + 62) / 63) - 1 do
    let lo = 63 * b and hi = min (Array.length ffs) ((63 * b) + 63) in
    Lanes.reset st ~init;
    for k = lo to hi - 1 do
      Lanes.set_state_lane st ffs.(k) ~lane:(1 + k - lo) (Logic4.not_ init)
    done;
    replay st stimulus ~strobe:(fun () ->
        Lanes.strobe st func_outs ~into:0;
        Lanes.strobe st alarm_outs ~into:1);
    for k = lo to hi - 1 do
      results.(k) <-
        {
          (results.(k)) with
          seu_diverged = Lanes.differs st ~into:0 (1 + k - lo);
          seu_alarmed = Lanes.differs st ~into:1 (1 + k - lo);
        }
    done
  done;
  results
