type cone = {
  sched : int array;
  last_sink : int array;
  stem_last : int;
  outs : int array;
  seqs : int array;
}

type cache = ..

type t = {
  nl : Netlist.t;
  sources : int array;
  topo_pos : int array;
  cones : cone option array;
  mutable ipdom : int array option;
      (* global immediate post-dominators towards the virtual observation
         sink; built lazily under [cm] *)
  mutable cost : int array option;
      (* saturating per-node fanout-cone cost estimate; built lazily
         under [cm] *)
  mutable extra : cache list;
      (* downstream per-netlist caches (e.g. the slice graph), appended
         under [cm]; first-published entry of a constructor wins *)
  mutable digest : string option;
      (* content digest, built lazily under [cm]; the artifact-cache key
         of the analysis service *)
  cm : Mutex.t;
  mutable cone_budget : int;
}

(* Total sched entries the per-netlist memo may retain; beyond it cones
   are rebuilt per call (the callers' one-entry caches absorb the cost,
   fault lists being ordered by site). *)
let memo_budget = 4_000_000

let netlist t = t.nl
let sources t = t.sources
let topo_pos t = t.topo_pos

let find_cache t f =
  Mutex.lock t.cm;
  let r = List.find_map f t.extra in
  Mutex.unlock t.cm;
  r

let add_cache t c =
  Mutex.lock t.cm;
  (* append: a sibling domain that published the same constructor first
     keeps winning [find_cache], so every consumer sees one value *)
  t.extra <- t.extra @ [ c ];
  Mutex.unlock t.cm

type scratch = {
  (* cone-builder state *)
  cvis : int array;
  pvis : int array;
  cposv : int array;
  mutable cgen : int;
  mutable last_stem : int;
  mutable last_cone : cone option;
  (* one-entry dominator-chain cache *)
  mutable last_dom_stem : int;
  mutable last_dom : int array;
}

module Scratch = struct
  type nonrec t = scratch

  let create a =
    let n = Netlist.length a.nl in
    {
      cvis = Array.make n 0;
      pvis = Array.make n 0;
      cposv = Array.make n 0;
      cgen = 0;
      last_stem = -1;
      last_cone = None;
      last_dom_stem = -1;
      last_dom = [||];
    }
end

(* Build the cone of stem [d]: frontier scan over fanouts (stopping at
   sequential sinks, whose captures — not outputs — belong to the cone),
   then a topological sort of the visited set. *)
let build t s d =
  let nl = t.nl in
  s.cgen <- s.cgen + 1;
  let g = s.cgen in
  let sched_v = Vec.create () in
  let seqs_v = Vec.create () in
  let expand i =
    Array.iter
      (fun (sink, _pin) ->
        if s.cvis.(sink) <> g then begin
          s.cvis.(sink) <- g;
          if Cell.is_seq (Netlist.kind nl sink) then
            ignore (Vec.push seqs_v sink : int)
          else ignore (Vec.push sched_v sink : int)
        end)
      (Netlist.fanout nl i)
  in
  expand d;
  let w = ref 0 in
  while !w < Vec.length sched_v do
    expand (Vec.get sched_v !w);
    incr w
  done;
  let sched = Vec.to_array sched_v in
  Array.sort (fun a b -> Int.compare t.topo_pos.(a) t.topo_pos.(b)) sched;
  Array.iteri
    (fun k i ->
      s.pvis.(i) <- g;
      s.cposv.(i) <- k)
    sched;
  let last_sink = Array.make (Array.length sched) (-1) in
  let stem_last = ref (-1) in
  Array.iteri
    (fun k i ->
      Array.iter
        (fun drv ->
          if drv = d then stem_last := k
          else if s.pvis.(drv) = g then last_sink.(s.cposv.(drv)) <- k)
        (Netlist.fanin nl i))
    sched;
  let outs_v = Vec.create () in
  if Cell.equal_kind (Netlist.kind nl d) Cell.Output then
    ignore (Vec.push outs_v d : int);
  Array.iter
    (fun i ->
      if Cell.equal_kind (Netlist.kind nl i) Cell.Output then
        ignore (Vec.push outs_v i : int))
    sched;
  {
    sched;
    last_sink;
    stem_last = !stem_last;
    outs = Vec.to_array outs_v;
    seqs = Vec.to_array seqs_v;
  }

let cone t s d =
  if s.last_stem = d then Option.get s.last_cone
  else begin
    Mutex.lock t.cm;
    let memoized = t.cones.(d) in
    Mutex.unlock t.cm;
    let c =
      match memoized with
      | Some c -> c
      | None ->
        let c = build t s d in
        Mutex.lock t.cm;
        let c =
          match t.cones.(d) with
          | Some c' -> c' (* a sibling worker published first; share it *)
          | None ->
            let cost = Array.length c.sched in
            if t.cone_budget >= cost then begin
              t.cones.(d) <- Some c;
              t.cone_budget <- t.cone_budget - cost
            end;
            c
        in
        Mutex.unlock t.cm;
        c
    in
    s.last_stem <- d;
    s.last_cone <- Some c;
    c
  end

(* Global immediate post-dominators towards a virtual observation sink,
   computed once for the whole netlist in one reverse-topological pass:
   - an [Output] marker is itself an observation point (its ipdom is the
     virtual sink);
   - an edge into a sequential cell reaches the virtual sink directly
     (capture credit: the value is latched into state);
   - a fanout branch whose sink cannot reach any observation point
     contributes no paths, so it is excluded from the intersection.
   Values: node index [>= 0], [-1] the virtual sink, [-2] unreachable.
   The post-dominator chain of a stem is exactly the set of nodes every
   stem-to-exit path passes through — its unique-sensitization gates. *)
let build_ipdom t =
  let nl = t.nl in
  let n = Netlist.length nl in
  let ipdom = Array.make n (-2) in
  let pos = t.topo_pos in
  let rec inter a b =
    if a = b then a
    else if a = -1 || b = -1 then -1
    else if pos.(a) < pos.(b) then inter ipdom.(a) b
    else inter a ipdom.(b)
  in
  let of_fanouts i =
    let cur = ref (-2) in
    Array.iter
      (fun (sink, _pin) ->
        let finger =
          if Cell.is_seq (Netlist.kind nl sink) then -1
          else if ipdom.(sink) = -2 then -2
          else sink
        in
        if finger <> -2 then
          cur := (if !cur = -2 then finger else inter !cur finger))
      (Netlist.fanout nl i);
    !cur
  in
  let topo = Netlist.topo nl in
  for k = Array.length topo - 1 downto 0 do
    let i = topo.(k) in
    ipdom.(i) <-
      (if Cell.equal_kind (Netlist.kind nl i) Cell.Output then -1
       else of_fanouts i)
  done;
  (* sources (inputs, ties, sequential cells) are stems too; all their
     fanout sinks are non-source nodes computed above *)
  Array.iter
    (fun i -> if ipdom.(i) = -2 then ipdom.(i) <- of_fanouts i)
    t.sources;
  Netlist.iter_nodes
    (fun i nd ->
      if Cell.is_tie nd.Netlist.kind && ipdom.(i) = -2 then
        ipdom.(i) <- of_fanouts i)
    nl;
  ipdom

let global_ipdom t =
  Mutex.lock t.cm;
  let a =
    match t.ipdom with
    | Some a -> a
    | None ->
      let a = build_ipdom t in
      t.ipdom <- Some a;
      a
  in
  Mutex.unlock t.cm;
  a

let stem_dominators t s d =
  if s.last_dom_stem = d then s.last_dom
  else begin
    let ipdom = global_ipdom t in
    let acc = ref [] in
    let p = ref ipdom.(d) in
    while !p >= 0 do
      acc := !p :: !acc;
      p := ipdom.(!p)
    done;
    let a = Array.of_list (List.rev !acc) in
    s.last_dom_stem <- d;
    s.last_dom <- a;
    a
  end

(* Per-node fanout-cone cost estimate in one reverse-topological pass:
   est(i) = 1 + sum over combinational fanout sinks of est(sink),
   saturated.  Reconvergent fanout double-counts, which only exaggerates
   the nodes whose cones are genuinely large — fine for ordering. *)
let cost_cap = 1 lsl 20

let build_cost t =
  let nl = t.nl in
  let n = Netlist.length nl in
  let est = Array.make n 0 in
  let of_fanouts i =
    let acc = ref 1 in
    Array.iter
      (fun (sink, _pin) ->
        if !acc < cost_cap then
          if Cell.is_seq (Netlist.kind nl sink) then incr acc
          else acc := !acc + est.(sink))
      (Netlist.fanout nl i);
    min !acc cost_cap
  in
  let topo = Netlist.topo nl in
  for k = Array.length topo - 1 downto 0 do
    let i = topo.(k) in
    est.(i) <- of_fanouts i
  done;
  (* sources (inputs, ties, sequential cells): every fanout sink is a
     non-source node already computed above *)
  Array.iter (fun i -> if est.(i) = 0 then est.(i) <- of_fanouts i) t.sources;
  Netlist.iter_nodes
    (fun i nd ->
      if Cell.is_tie nd.Netlist.kind && est.(i) = 0 then
        est.(i) <- of_fanouts i)
    nl;
  est

let cone_cost t =
  Mutex.lock t.cm;
  let a =
    match t.cost with
    | Some a -> a
    | None ->
      let a = build_cost t in
      t.cost <- Some a;
      a
  in
  Mutex.unlock t.cm;
  a

(* Heavy-first schedule over work items: a permutation of [0, n) sorted
   by descending cone cost of [site k], ascending index on ties.  The
   stable tiebreak keeps same-site runs contiguous, preserving the
   one-entry cone/dominator caches of the walkers; drawing the heaviest
   cones first puts them in the pool's large early claims, and the
   shrinking tail claims even out what is left instead of serializing it
   behind one worker.

   The key [cost_cap - cost] lies in [0, 2^20], so a stable two-pass LSD
   radix sort on it (11-bit digits) yields exactly the permutation of the
   comparison sort — descending cost, ascending index on ties — in linear
   time, with one scratch array beside the result. *)
let radix_bits = 11

let order_by_cost t ~site n =
  let est = cone_cost t in
  let key k = cost_cap - est.(site k) in
  let digits = 1 lsl radix_bits in
  let count = Array.make digits 0 in
  let tmp = Array.make n 0 and order = Array.make n 0 in
  (* distribute items [item 0 .. item (n-1)] into [dst] by the digit of
     their key at [shift], keeping item order within a digit *)
  let pass ~shift ~item dst =
    let digit k = (key k lsr shift) land (digits - 1) in
    Array.fill count 0 digits 0;
    for j = 0 to n - 1 do
      let d = digit (item j) in
      count.(d) <- count.(d) + 1
    done;
    let acc = ref 0 in
    for d = 0 to digits - 1 do
      let c = count.(d) in
      count.(d) <- !acc;
      acc := !acc + c
    done;
    for j = 0 to n - 1 do
      let k = item j in
      let d = digit k in
      dst.(count.(d)) <- k;
      count.(d) <- count.(d) + 1
    done
  in
  pass ~shift:0 ~item:Fun.id tmp;
  pass ~shift:radix_bits ~item:(Array.get tmp) order;
  order

(* Content digest over everything that can change an analysis result:
   cell kinds, fanin wiring, net names and role assignments, in node
   order.  Two netlists with equal digests are behaviourally identical
   to every engine, so the digest is a sound memo key for derived
   artifacts (flow reports, implication databases, fixpoints). *)
let role_string = function
  | Netlist.Clock -> "CK"
  | Netlist.Reset -> "RS"
  | Netlist.Scan_enable -> "SE"
  | Netlist.Scan_in -> "SI"
  | Netlist.Scan_out -> "SO"
  | Netlist.Debug_control -> "DC"
  | Netlist.Debug_observe -> "DO"
  | Netlist.Address_reg i -> "AR" ^ string_of_int i
  | Netlist.Address_port i -> "AP" ^ string_of_int i

let compute_digest nl =
  let b = Buffer.create (Netlist.length nl * 16) in
  Buffer.add_string b (string_of_int (Netlist.length nl));
  Netlist.iter_nodes
    (fun i nd ->
      Buffer.add_char b '\n';
      Buffer.add_string b (string_of_int i);
      Buffer.add_char b ' ';
      Buffer.add_string b (Cell.kind_name nd.Netlist.kind);
      Array.iter
        (fun f ->
          Buffer.add_char b ' ';
          Buffer.add_string b (string_of_int f))
        nd.Netlist.fanin;
      match nd.Netlist.name with
      | None -> ()
      | Some s ->
        Buffer.add_char b '/';
        Buffer.add_string b s)
    nl;
  List.iter
    (fun (i, r) ->
      Buffer.add_char b '\n';
      Buffer.add_string b (string_of_int i);
      Buffer.add_char b ':';
      Buffer.add_string b (role_string r))
    (Netlist.role_assignments nl);
  Digest.to_hex (Digest.string (Buffer.contents b))

let digest t =
  Mutex.lock t.cm;
  let d =
    match t.digest with
    | Some d -> d
    | None ->
      let d = compute_digest t.nl in
      t.digest <- Some d;
      d
  in
  Mutex.unlock t.cm;
  d

let make nl =
  let n = Netlist.length nl in
  let topo_pos = Array.make n (-1) in
  Array.iteri (fun k i -> topo_pos.(i) <- k) (Netlist.topo nl);
  {
    nl;
    sources = Array.append (Netlist.inputs nl) (Netlist.seq_nodes nl);
    topo_pos;
    cones = Array.make n None;
    ipdom = None;
    cost = None;
    extra = [];
    digest = None;
    cm = Mutex.create ();
    cone_budget = memo_budget;
  }

(* Weak per-netlist memo, keyed by physical identity: analyses die with
   their netlist (the value's reference back to the key is exactly what
   ephemerons are for). *)
module Tbl = Ephemeron.K1.Make (struct
  type t = Netlist.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let global : t Tbl.t = Tbl.create 17
let gm = Mutex.create ()

let get nl =
  Mutex.lock gm;
  let a =
    match Tbl.find_opt global nl with
    | Some a -> a
    | None ->
      let a = make nl in
      Tbl.add global nl a;
      a
  in
  Mutex.unlock gm;
  a

let digest_of nl = digest (get nl)
