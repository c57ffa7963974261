type span = {
  id : int;
  parent : int;
  name : string;
  cat : string;
  tid : int;
  t0 : float;
  dur : float;
}

type recorder = {
  origin : float;
  m : Mutex.t;
  mutable spans : span list;  (* reverse completion order, m-protected *)
  mutable events : int;  (* m-protected *)
  next_id : int Atomic.t;
  counters : (string, int ref) Hashtbl.t;  (* m-protected *)
  gauges : (string, float) Hashtbl.t;  (* m-protected *)
  stack : int list ref Domain.DLS.key;  (* open-span ids, per domain *)
}

type sink = Noop | Rec of recorder

(* Monotonic clock: gettimeofday clamped to never decrease, process-wide.
   Zero-dependency stand-in for CLOCK_MONOTONIC — span durations can be
   stretched by a forward clock step but never go negative. *)
let mono_last = Atomic.make 0.

let mono_now () =
  let t = Unix.gettimeofday () in
  let rec clamp () =
    let last = Atomic.get mono_last in
    if t <= last then last
    else if Atomic.compare_and_set mono_last last t then t
    else clamp ()
  in
  clamp ()

let null = Noop

let create () =
  Rec
    {
      origin = mono_now ();
      m = Mutex.create ();
      spans = [];
      events = 0;
      next_id = Atomic.make 0;
      counters = Hashtbl.create 31;
      gauges = Hashtbl.create 7;
      stack = Domain.DLS.new_key (fun () -> ref []);
    }

let enabled = function Noop -> false | Rec _ -> true
let now = function Noop -> 0. | Rec r -> mono_now () -. r.origin

let push_span r s =
  Mutex.lock r.m;
  r.spans <- s :: r.spans;
  r.events <- r.events + 1;
  Mutex.unlock r.m

let span sink ?(cat = "span") name f =
  match sink with
  | Noop -> f ()
  | Rec r ->
    let stack = Domain.DLS.get r.stack in
    let parent = match !stack with [] -> -1 | p :: _ -> p in
    let id = Atomic.fetch_and_add r.next_id 1 in
    stack := id :: !stack;
    let t0 = mono_now () -. r.origin in
    Fun.protect
      ~finally:(fun () ->
        let dur = mono_now () -. r.origin -. t0 in
        (match !stack with
        | top :: rest when top = id -> stack := rest
        | _ -> () (* unbalanced pop: keep recording, drop the repair *));
        push_span r { id; parent; name; cat; tid = 0; t0; dur })
      f

let record sink ?(cat = "span") ?(tid = 0) ?t0 ~dur name =
  match sink with
  | Noop -> ()
  | Rec r ->
    let t0 =
      match t0 with Some t -> t | None -> mono_now () -. r.origin -. dur
    in
    let id = Atomic.fetch_and_add r.next_id 1 in
    push_span r { id; parent = -1; name; cat; tid; t0 = Float.max 0. t0; dur }

let add sink name n =
  match sink with
  | Noop -> ()
  | Rec r ->
    Mutex.lock r.m;
    (match Hashtbl.find_opt r.counters name with
    | Some c -> c := !c + n
    | None -> Hashtbl.add r.counters name (ref n));
    r.events <- r.events + 1;
    Mutex.unlock r.m

let gauge sink name v =
  match sink with
  | Noop -> ()
  | Rec r ->
    Mutex.lock r.m;
    Hashtbl.replace r.gauges name v;
    r.events <- r.events + 1;
    Mutex.unlock r.m

let events = function
  | Noop -> 0
  | Rec r ->
    Mutex.lock r.m;
    let n = r.events in
    Mutex.unlock r.m;
    n

let spans = function
  | Noop -> []
  | Rec r ->
    Mutex.lock r.m;
    let l = r.spans in
    Mutex.unlock r.m;
    List.stable_sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id)) l

let counters = function
  | Noop -> []
  | Rec r ->
    Mutex.lock r.m;
    let l = Hashtbl.fold (fun name c acc -> (name, !c) :: acc) r.counters [] in
    Mutex.unlock r.m;
    List.sort compare l

let gauges = function
  | Noop -> []
  | Rec r ->
    Mutex.lock r.m;
    let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) r.gauges [] in
    Mutex.unlock r.m;
    List.sort compare l

let engine_seconds sink =
  let tbl = Hashtbl.create 17 in
  List.iter
    (fun s ->
      if s.cat = "engine" then
        Hashtbl.replace tbl s.name
          (Option.value ~default:0. (Hashtbl.find_opt tbl s.name) +. s.dur))
    (spans sink);
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
