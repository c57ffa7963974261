module J = Olfu_obs.Json

type outcome = {
  json : string;
  text : string;
  summary : string;
  status : Response.status;
  aux : (string * string) list;
}

type loaded = {
  nl : Olfu_netlist.Netlist.t;
  mission : Olfu.Mission.t;
  digest : string;
  cfg : Olfu_soc.Soc.config option;
}

type value = Loaded of loaded | Flow of Olfu.Flow.report | Outcome of outcome

type stats = {
  entries : int;
  bytes : int;
  budget : int option;
  hits : int;
  misses : int;
  evictions : int;
}

type entry = { value : value; bytes : int; mutable tick : int }

type t = {
  tbl : (string, entry) Hashtbl.t;
  budget : int option;
  m : Mutex.t;
  mutable used : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?byte_budget () =
  {
    tbl = Hashtbl.create 64;
    budget = byte_budget;
    m = Mutex.create ();
    used = 0;
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* Size at insertion: the whole reachable graph of the value.  Shared
   substructure (a [Loaded] netlist also reachable from a [Flow] report)
   is counted once per entry, so [used] over-approximates the true
   footprint — the safe direction for a budget.  Only a budget reads
   it: an unbounded session never walks its values. *)
let size_of t value =
  match t.budget with
  | None -> 0
  | Some _ -> Obj.reachable_words (Obj.repr value) * (Sys.word_size / 8)

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | None ->
        t.misses <- t.misses + 1;
        None
      | Some e ->
        t.clock <- t.clock + 1;
        e.tick <- t.clock;
        t.hits <- t.hits + 1;
        Some e.value)

let evict_locked t ~keep budget =
  let exception Done in
  try
    while t.used > budget && Hashtbl.length t.tbl > 1 do
      let victim =
        Hashtbl.fold
          (fun k e acc ->
            if String.equal k keep then acc
            else
              match acc with
              | Some (_, e') when e'.tick <= e.tick -> acc
              | _ -> Some (k, e))
          t.tbl None
      in
      match victim with
      | None -> raise Done (* only the protected entry remains *)
      | Some (k, e) ->
        Hashtbl.remove t.tbl k;
        t.used <- t.used - e.bytes;
        t.evictions <- t.evictions + 1
    done
  with Done -> ()

let add t key value =
  let bytes = size_of t value in
  locked t (fun () ->
      (match Hashtbl.find_opt t.tbl key with
      | Some old ->
        t.used <- t.used - old.bytes;
        Hashtbl.remove t.tbl key
      | None -> ());
      t.clock <- t.clock + 1;
      Hashtbl.replace t.tbl key { value; bytes; tick = t.clock };
      t.used <- t.used + bytes;
      Option.iter (evict_locked t ~keep:key) t.budget)

let memo t key build =
  match find t key with
  | Some v -> (v, true)
  | None ->
    let v = build () in
    add t key v;
    (v, false)

let stats t =
  locked t (fun () ->
      {
        entries = Hashtbl.length t.tbl;
        bytes = t.used;
        budget = t.budget;
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
      })

let stats_json s =
  J.Obj
    [
      ("entries", J.Int s.entries);
      ("bytes", J.Int s.bytes);
      ("budget", match s.budget with Some b -> J.Int b | None -> J.Null);
      ("hits", J.Int s.hits);
      ("misses", J.Int s.misses);
      ("evictions", J.Int s.evictions);
    ]
