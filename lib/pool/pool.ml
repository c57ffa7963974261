module Trace = Olfu_obs.Trace

let clamp_jobs j = max 1 (min 64 j)

let env_warned = ref false

let default_jobs () =
  match Sys.getenv_opt "OLFU_JOBS" with
  | None -> 1
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j -> clamp_jobs j
    | None ->
      if not !env_warned then begin
        env_warned := true;
        Printf.eprintf
          "olfu: warning: OLFU_JOBS=%S is not an integer; falling back to 1 \
           job\n\
           %!"
          s
      end;
      1)

(* Spawning more domains than the machine has cores is a pessimization in
   OCaml 5: minor collections are stop-the-world across every domain, so
   an oversubscribed domain set pays scheduling latency on each GC.  All
   pool consumers are jobs-invariant by contract, so silently running a
   [jobs = 4] request on fewer domains changes timing only, never
   results. *)
let hardware_jobs () = clamp_jobs (Domain.recommended_domain_count ())

let effective ~oversubscribe jobs =
  let j = clamp_jobs jobs in
  if oversubscribe then j else min j (hardware_jobs ())

(* ------------------------------------------------------------------ *)
(* One shared cursor with guided claims                                *)
(* ------------------------------------------------------------------ *)

(* Every worker claims its next chunk off one shared atomic cursor.  A
   claim takes [remaining / (2 * jobs)] items, capped by the quantum and
   at least 1: early claims are big and cheap, tail claims shrink
   towards one item.  No item is assigned before a worker asks for it,
   so an item with a pathological cost (a huge fanout cone, say) holds
   up only the worker running it while its siblings drain the rest. *)

(* One cache line of floats per worker: adjacent slots of the busy array
   would otherwise false-share when every worker stamps its own time. *)
let busy_stride = 8

type job = {
  f : worker:int -> lo:int -> hi:int -> unit;
  n : int;
  quantum : int;  (* max items per claim *)
  share : int;  (* 2 * jobs: a claim takes 1/share of what remains *)
  cursor : int Atomic.t;  (* first unclaimed index *)
  abort : bool Atomic.t;
  trace : Trace.sink;
  label : string;
  busy : float array;  (* per-worker busy seconds, stride-padded *)
}

type t = {
  m : Mutex.t;
  work : Condition.t;  (* workers: a new generation is available *)
  idle : Condition.t;  (* caller: all workers finished the generation *)
  mutable job : job option;
  mutable generation : int;
  mutable running : int;
  mutable stop : bool;
  mutable exn : (exn * Printexc.raw_backtrace) option;
  mutable shut : bool;
  mutable domains : unit Domain.t array;
  mutable leased : bool;  (* held by a [with_pool] caller (registry) *)
  njobs : int;
}

let jobs t = t.njobs

let record t e bt =
  Mutex.lock t.m;
  if t.exn = None then t.exn <- Some (e, bt);
  Mutex.unlock t.m

let rec claim j =
  let lo = Atomic.get j.cursor in
  if lo >= j.n then None
  else begin
    let take = min j.quantum (max 1 ((j.n - lo) / j.share)) in
    if Atomic.compare_and_set j.cursor lo (lo + take) then Some (lo, lo + take)
    else claim j
  end

(* Work until every item is claimed (or a sibling failed). *)
let rec consume t j ~worker =
  if not (Atomic.get j.abort) then
    match claim j with
    | None -> ()
    | Some (lo, hi) ->
      (try j.f ~worker ~lo ~hi
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         Atomic.set j.abort true;
         record t e bt);
      consume t j ~worker

(* Busy time is scheduling-dependent, so it goes in spans and gauges
   (one "worker" span per worker per dispatch), never in counters. *)
let consume_traced t j ~worker =
  if not (Trace.enabled j.trace) then consume t j ~worker
  else begin
    let t0 = Trace.now j.trace in
    consume t j ~worker;
    let dur = Trace.now j.trace -. t0 in
    j.busy.(worker * busy_stride) <- dur;
    Trace.record j.trace ~cat:"worker" ~tid:worker ~t0 ~dur j.label
  end

let worker_loop t ~worker =
  let rec loop last_gen =
    Mutex.lock t.m;
    while (not t.stop) && t.generation = last_gen do
      Condition.wait t.work t.m
    done;
    if t.stop then Mutex.unlock t.m
    else begin
      let gen = t.generation in
      let j = Option.get t.job in
      Mutex.unlock t.m;
      consume_traced t j ~worker;
      Mutex.lock t.m;
      t.running <- t.running - 1;
      if t.running = 0 then Condition.broadcast t.idle;
      Mutex.unlock t.m;
      loop gen
    end
  in
  loop 0

let create ?(oversubscribe = false) ~jobs () =
  let njobs = effective ~oversubscribe jobs in
  let t =
    {
      m = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      job = None;
      generation = 0;
      running = 0;
      stop = false;
      exn = None;
      shut = false;
      domains = [||];
      leased = false;
      njobs;
    }
  in
  t.domains <-
    Array.init (njobs - 1) (fun k ->
        Domain.spawn (fun () -> worker_loop t ~worker:(k + 1)));
  t

let shutdown t =
  Mutex.lock t.m;
  if t.shut then Mutex.unlock t.m
  else begin
    t.shut <- true;
    t.stop <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.m;
    Array.iter Domain.join t.domains
  end

let parallel_chunks t ~n ?chunk ?(trace = Trace.null) ?(label = "pool") f =
  if n > 0 then begin
    let nw = t.njobs in
    let quantum =
      match chunk with
      | Some c -> max 1 c
      | None -> max 1 (min 1024 (n / (16 * nw)))
    in
    let j =
      {
        f;
        n;
        quantum;
        share = 2 * nw;
        cursor = Atomic.make 0;
        abort = Atomic.make false;
        trace;
        label;
        busy = Array.make (nw * busy_stride) 0.;
      }
    in
    Trace.add trace "pool.dispatches" 1;
    Trace.add trace "pool.items" n;
    let t_start = if Trace.enabled trace then Trace.now trace else 0. in
    Mutex.lock t.m;
    if t.shut then begin
      Mutex.unlock t.m;
      invalid_arg "Pool.parallel_chunks: pool is shut down"
    end;
    t.exn <- None;
    if nw > 1 then begin
      t.job <- Some j;
      t.running <- nw - 1;
      t.generation <- t.generation + 1;
      Condition.broadcast t.work
    end;
    Mutex.unlock t.m;
    (* the caller is worker 0; with no worker domains it runs alone *)
    consume_traced t j ~worker:0;
    Mutex.lock t.m;
    while t.running > 0 do
      Condition.wait t.idle t.m
    done;
    t.job <- None;
    let e = t.exn in
    t.exn <- None;
    Mutex.unlock t.m;
    if Trace.enabled trace then begin
      let region = Trace.now trace -. t_start in
      let busy_total = ref 0. and idle = ref 0. in
      for w = 0 to nw - 1 do
        let b = j.busy.(w * busy_stride) in
        busy_total := !busy_total +. b;
        idle := !idle +. Float.max 0. (region -. b)
      done;
      Trace.record trace ~cat:"pool" ~t0:t_start ~dur:region
        (label ^ " dispatch");
      Trace.gauge trace "pool.last_idle_seconds" !idle;
      if region > 0. then
        Trace.gauge trace "pool.last_utilization"
          (!busy_total /. (float_of_int nw *. region))
    end;
    match e with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Shared pools: with_pool reuses one long-lived domain set per size    *)
(* ------------------------------------------------------------------ *)

(* Spawning domains costs a stop-the-world per spawn and join; a flow
   dispatches through the pool many times, so [with_pool] leases
   process-global pools instead of respawning.  The registry keeps a
   small list of pools per effective size: a long-lived server handling
   overlapping requests with the same [jobs] leases one pool each
   instead of paying a full spawn/join cycle per request (the old
   single-slot registry did exactly that whenever its one pool was
   busy).  Beyond [registry_cap] concurrent leases of one size, extra
   pools are private to the call and shut down on release, bounding the
   number of resident domains.  Pools created directly with [create] are
   never registered.

   Lock discipline: [registry_m] only ever protects the table and the
   [leased] flags — never held across [create] (a domain spawn is a
   stop-the-world) or [f] — so concurrent [with_pool] calls from
   different domains, with equal or different sizes, cannot deadlock. *)
let registry : (int, t list) Hashtbl.t = Hashtbl.create 7
let registry_cap = 4
let registry_m = Mutex.create ()
let at_exit_installed = ref false

let release p =
  Mutex.lock registry_m;
  p.leased <- false;
  Mutex.unlock registry_m

let with_pool ?(oversubscribe = false) ~jobs f =
  let njobs = effective ~oversubscribe jobs in
  if njobs = 1 || oversubscribe then begin
    let t = create ~oversubscribe ~jobs:njobs () in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
  end
  else begin
    Mutex.lock registry_m;
    if not !at_exit_installed then begin
      at_exit_installed := true;
      Stdlib.at_exit (fun () ->
          Mutex.lock registry_m;
          let ps =
            Hashtbl.fold (fun _ ps acc -> ps @ acc) registry []
          in
          Hashtbl.reset registry;
          Mutex.unlock registry_m;
          List.iter shutdown ps)
    end;
    let pools =
      Option.value ~default:[] (Hashtbl.find_opt registry njobs)
    in
    let reused =
      match List.find_opt (fun p -> not p.leased) pools with
      | Some p ->
        p.leased <- true;
        Some p
      | None -> None
    in
    Mutex.unlock registry_m;
    match reused with
    | Some p -> Fun.protect ~finally:(fun () -> release p) (fun () -> f p)
    | None ->
      let p = create ~jobs:njobs () in
      p.leased <- true;
      Mutex.lock registry_m;
      let pools =
        Option.value ~default:[] (Hashtbl.find_opt registry njobs)
      in
      (* two racers may both register here; the cap stays approximate,
         which only ever costs an extra resident pool, never a leak *)
      let keep = List.length pools < registry_cap in
      if keep then Hashtbl.replace registry njobs (p :: pools);
      Mutex.unlock registry_m;
      Fun.protect
        ~finally:(fun () -> if keep then release p else shutdown p)
        (fun () -> f p)
  end
