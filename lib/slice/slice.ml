open Olfu_logic
open Olfu_netlist
module Ternary = Olfu_atpg.Ternary

type scc = { comp_of : int array; comps : int array array }

(* per condensation component: bitsets over flop ordinals of everything
   the component reaches backward (over [supports]) and forward *)
type reach = { back : int array array; fwd : int array array }

type edges = {
  supports : int array array;
  consumers : int array array;
  in_deps : int array array;
  out_deps : (int * int array) array;
  cond : scc;
  reach : reach;
}

type t = {
  nl : Netlist.t;
  hard : Logic4.t array;
  mission : Logic4.t array;
  flops : int array;
  ford : int array;
  structural : edges;
  hard_edges : edges;
  mission_edges : edges;
}

(* ------------------------------------------------------------------ *)
(* Severing: which fanin positions of a node are still read            *)
(* ------------------------------------------------------------------ *)

(* The one pin a decided select makes unreadable, or [-1].  A constant
   select pin itself (and any other constant fanin) is severed by the
   per-fanin constant check at the use site, so only the un-selected
   data pin needs special treatment here. *)
let dead_pin cval nl d =
  let fi = Netlist.fanin nl d in
  match Netlist.kind nl d with
  | Cell.Mux2 -> (
      (* fanin [sel; a; b]; out = a when sel = 0 *)
      match cval fi.(0) with Logic4.L0 -> 2 | Logic4.L1 -> 1 | _ -> -1)
  | Cell.Sdff | Cell.Sdffr -> (
      (* fanin [d; si; se; ...]; captures si when se = 1 *)
      match cval fi.(2) with Logic4.L0 -> 1 | Logic4.L1 -> 0 | _ -> -1)
  | _ -> -1

let iter_live_fanins cval nl d f =
  let dead = dead_pin cval nl d in
  Array.iteri (fun p e -> if p <> dead then f p e) (Netlist.fanin nl d)

(* ------------------------------------------------------------------ *)
(* Bitsets over flop and input ordinals                                *)
(* ------------------------------------------------------------------ *)

let bits = Sys.int_size
let words n = (n + bits - 1) / bits
let set b i = b.(i / bits) <- b.(i / bits) lor (1 lsl (i mod bits))
let mem b i = b.(i / bits) land (1 lsl (i mod bits)) <> 0

let union_into dst src =
  for w = 0 to Array.length dst - 1 do
    dst.(w) <- dst.(w) lor src.(w)
  done

let rec popcount x = if x = 0 then 0 else 1 + popcount (x land (x - 1))

(* the set bits of [b] in [lo, hi), ascending, each mapped through [f] *)
let elements b lo hi f =
  let acc = ref [] in
  for i = hi - 1 downto lo do
    if mem b i then acc := f i :: !acc
  done;
  Array.of_list !acc

let sorted_uniq l = Array.of_list (List.sort_uniq Int.compare l)

(* ------------------------------------------------------------------ *)
(* SCC condensation and reach sets                                     *)
(* ------------------------------------------------------------------ *)

(* Tarjan over the flop support graph; components are emitted callees
   first, i.e. ids are a reverse-topological numbering of the
   condensation DAG. *)
let scc supports =
  let n = Array.length supports in
  let index = Array.make n (-1) in
  let low = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp_of = Array.make n (-1) in
  let stack = ref [] in
  let next = ref 0 in
  let comps = ref [] in
  let ncomp = ref 0 in
  let rec strong v =
    index.(v) <- !next;
    low.(v) <- !next;
    incr next;
    stack := v :: !stack;
    on_stack.(v) <- true;
    Array.iter
      (fun w ->
        if index.(w) < 0 then begin
          strong w;
          if low.(w) < low.(v) then low.(v) <- low.(w)
        end
        else if on_stack.(w) && index.(w) < low.(v) then
          low.(v) <- index.(w))
      supports.(v);
    if low.(v) = index.(v) then begin
      let members = ref [] in
      let stop = ref false in
      while not !stop do
        match !stack with
        | [] -> stop := true
        | w :: tl ->
          stack := tl;
          on_stack.(w) <- false;
          comp_of.(w) <- !ncomp;
          members := w :: !members;
          if w = v then stop := true
      done;
      comps := sorted_uniq !members :: !comps;
      incr ncomp
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strong v
  done;
  { comp_of; comps = Array.of_list (List.rev !comps) }

(* Every successor of a component has a smaller id, so one pass in id
   order completes each backward set from its successors' finished
   ones, and one pass in reverse order pushes each finished forward set
   into its successors. *)
let reach_of cond supports =
  let nc = Array.length cond.comps in
  let w = words (Array.length supports) in
  let own c =
    let b = Array.make w 0 in
    Array.iter (set b) cond.comps.(c);
    b
  in
  let back = Array.init nc own and fwd = Array.init nc own in
  let stamp = Array.make nc (-1) in
  let succ =
    Array.init nc (fun c ->
        let l = ref [] in
        Array.iter
          (fun k ->
            Array.iter
              (fun s ->
                let d = cond.comp_of.(s) in
                if d <> c && stamp.(d) <> c then begin
                  stamp.(d) <- c;
                  l := d :: !l
                end)
              supports.(k))
          cond.comps.(c);
        !l)
  in
  for c = 0 to nc - 1 do
    List.iter (fun d -> union_into back.(c) back.(d)) succ.(c)
  done;
  for c = nc - 1 downto 0 do
    List.iter (fun d -> union_into fwd.(d) fwd.(c)) succ.(c)
  done;
  { back; fwd }

(* ------------------------------------------------------------------ *)
(* Flop-level dependency edges under a constant valuation              *)
(* ------------------------------------------------------------------ *)

let flop_ordinals nl flops =
  let ford = Array.make (Netlist.length nl) (-1) in
  Array.iteri (fun k f -> ford.(f) <- k) flops;
  ford

(* One pass over the combinational nodes in topological order gives
   each non-constant node the bitset of the sources its live cone still
   reads: flop ordinals first, then primary inputs in id order.  A
   binary-constant net adds nothing, a sequential cell its ordinal, an
   input its bit, a tie nothing, and any other node its own row, which
   is already final because [Netlist.create] rejects combinational
   loops.  A flop's or output's edges are the union over its live
   fanins, with no constant check on the seed itself. *)
let edges nl consts =
  let n = Netlist.length nl in
  let flops = Netlist.seq_nodes nl in
  let ford = flop_ordinals nl flops in
  let nf = Array.length flops in
  let ins = Netlist.inputs nl in
  let iord = Array.make n (-1) in
  Array.iteri (fun j i -> iord.(i) <- nf + j) ins;
  let w = words (nf + Array.length ins) in
  let cval d = consts.(d) in
  let rows = Array.make n [||] in
  let live d =
    let acc = Array.make w 0 in
    iter_live_fanins cval nl d (fun _ e ->
        if not (Logic4.is_binary consts.(e)) then
          let k = Netlist.kind nl e in
          if Cell.is_seq k then set acc ford.(e)
          else
            match k with
            | Cell.Input -> set acc iord.(e)
            | Cell.Tie0 | Cell.Tie1 | Cell.Tiex -> ()
            | _ -> union_into acc rows.(e));
    acc
  in
  Array.iter
    (fun d -> if not (Logic4.is_binary consts.(d)) then rows.(d) <- live d)
    (Netlist.topo nl);
  let flops_of b = elements b 0 nf Fun.id in
  let seeds = Array.map live flops in
  let supports = Array.map flops_of seeds in
  let in_deps =
    Array.map
      (fun b -> elements b nf (nf + Array.length ins) (fun j -> ins.(j - nf)))
      seeds
  in
  let out_deps =
    Array.map (fun o -> (o, flops_of (live o))) (Netlist.outputs nl)
  in
  (* transpose by counting; ascending [k] keeps every row sorted *)
  let fill = Array.make nf 0 in
  Array.iter (Array.iter (fun s -> fill.(s) <- fill.(s) + 1)) supports;
  let consumers = Array.map (fun c -> Array.make c 0) fill in
  Array.fill fill 0 nf 0;
  Array.iteri
    (fun k sup ->
      Array.iter
        (fun s ->
          consumers.(s).(fill.(s)) <- k;
          fill.(s) <- fill.(s) + 1)
        sup)
    supports;
  let cond = scc supports in
  let reach = reach_of cond supports in
  { supports; consumers; in_deps; out_deps; cond; reach }

(* ------------------------------------------------------------------ *)
(* Graph construction                                                  *)
(* ------------------------------------------------------------------ *)

let default_assume nl =
  Array.to_list (Netlist.inputs nl)
  |> List.filter_map (fun i ->
         if Netlist.has_role nl i Netlist.Debug_control then
           Some (i, Logic4.L0)
         else None)

let build ?assume nl =
  let assume =
    match assume with Some a -> a | None -> default_assume nl
  in
  (* hard constants: per-cycle, state-free — valid at every cycle of any
     BMC encoding (flop outputs are X, so no steady-state claim leaks
     into a free initial state); reset inactivity is the only
     environment fact, because every bounded encoding holds it *)
  let hard = (Ternary.run ~ff_mode:Ternary.Cut nl).Ternary.values in
  let mission =
    (Ternary.run ~ff_mode:Ternary.Steady_state ~assume nl).Ternary.values
  in
  let flops = Netlist.seq_nodes nl in
  {
    nl;
    hard;
    mission;
    flops;
    ford = flop_ordinals nl flops;
    structural = edges nl (Array.make (Netlist.length nl) Logic4.X);
    hard_edges = edges nl hard;
    mission_edges = edges nl mission;
  }

type Analysis.cache += Slice_graph of t

let find a =
  Analysis.find_cache a (function Slice_graph g -> Some g | _ -> None)

let get nl =
  let a = Analysis.get nl in
  match find a with
  | Some g -> g
  | None ->
    Analysis.add_cache a (Slice_graph (build nl));
    (* re-read: if a sibling domain published first, its value wins *)
    Option.get (find a)

(* ------------------------------------------------------------------ *)
(* Flop-level closures and statistics                                  *)
(* ------------------------------------------------------------------ *)

let union_reach sets e seeds =
  let nf = Array.length e.supports in
  let acc = Array.make (words nf) 0 in
  List.iter (fun k -> union_into acc sets.(e.cond.comp_of.(k))) seeds;
  Array.init nf (mem acc)

let backward_flops e seeds = union_reach e.reach.back e seeds
let forward_flops e seeds = union_reach e.reach.fwd e seeds

let backward_sizes e =
  let size =
    Array.map (Array.fold_left (fun a x -> a + popcount x) 0) e.reach.back
  in
  Array.map (fun c -> size.(c)) e.cond.comp_of

type dist = {
  count : int;
  min_ : int;
  max_ : int;
  mean : float;
  median : int;
  p90 : int;
}

let dist_of a =
  let count = Array.length a in
  if count = 0 then
    { count = 0; min_ = 0; max_ = 0; mean = 0.; median = 0; p90 = 0 }
  else begin
    let s = Array.copy a in
    Array.sort Int.compare s;
    let q p = s.(min (count - 1) (p * count / 100)) in
    {
      count;
      min_ = s.(0);
      max_ = s.(count - 1);
      mean =
        float_of_int (Array.fold_left ( + ) 0 s) /. float_of_int count;
      median = q 50;
      p90 = q 90;
    }
  end

type regime = { label : string; edges : edges; sizes : dist }

let regimes g =
  List.map
    (fun (label, edges) ->
      { label; edges; sizes = dist_of (backward_sizes edges) })
    [
      ("structural", g.structural);
      ("hard", g.hard_edges);
      ("mission", g.mission_edges);
    ]

let flop_name g k =
  match Netlist.name g.nl g.flops.(k) with
  | Some s -> s
  | None -> Printf.sprintf "ff%d" g.flops.(k)

let condensation_dot g e =
  let c = e.cond in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph slice {\n  rankdir=LR;\n";
  Array.iteri
    (fun i members ->
      Buffer.add_string buf
        (Printf.sprintf "  c%d [label=\"%s (%d)\"];\n" i
           (flop_name g members.(0))
           (Array.length members)))
    c.comps;
  let seen = Hashtbl.create 64 in
  Array.iteri
    (fun k sup ->
      Array.iter
        (fun s ->
          let a = c.comp_of.(k) and b = c.comp_of.(s) in
          if a <> b && not (Hashtbl.mem seen (a, b)) then begin
            Hashtbl.add seen (a, b) ();
            Buffer.add_string buf (Printf.sprintf "  c%d -> c%d;\n" a b)
          end)
        sup)
    e.supports;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Reduced machines                                                    *)
(* ------------------------------------------------------------------ *)

type reduced = {
  rnl : Netlist.t;
  new_of_old : int array;
  old_of_new : int array;
}

let cert_fail fmt = Printf.ksprintf failwith ("slice certify: " ^^ fmt)

(* Strict map validation against the original netlist: every kept node
   is re-walked kind-by-kind and pin-by-pin under the hard valuation the
   machine was built with. *)
let certify g r =
  let nl = g.nl in
  let cval d = g.hard.(d) in
  let nn = Netlist.length r.rnl in
  if Array.length r.new_of_old <> Netlist.length nl then
    cert_fail "new_of_old length %d <> netlist length %d"
      (Array.length r.new_of_old) (Netlist.length nl);
  Array.iteri
    (fun m d ->
      if d >= 0 && r.new_of_old.(d) <> m then
        cert_fail "old_of_new.(%d) = %d but new_of_old.(%d) = %d" m d d
          r.new_of_old.(d))
    r.old_of_new;
  Array.iteri
    (fun d m ->
      if m >= 0 then begin
        if m >= nn || r.old_of_new.(m) <> d then
          cert_fail "new_of_old.(%d) = %d not mapped back" d m;
        let ok = Netlist.kind nl d and nk = Netlist.kind r.rnl m in
        if not (Cell.equal_kind ok nk) then
          cert_fail "node %d kind %s rebuilt as %s" d (Cell.kind_name ok)
            (Cell.kind_name nk);
        if
          (not (Cell.equal_kind ok Cell.Input))
          && Netlist.name nl d <> Netlist.name r.rnl m
        then cert_fail "node %d name changed" d;
        let ofi = Netlist.fanin nl d and nfi = Netlist.fanin r.rnl m in
        if Array.length ofi <> Array.length nfi then
          cert_fail "node %d arity %d rebuilt as %d" d (Array.length ofi)
            (Array.length nfi);
        let dead = dead_pin cval nl d in
        Array.iteri
          (fun p oe ->
            let ne = nfi.(p) in
            if p = dead then begin
              if not (Cell.equal_kind (Netlist.kind r.rnl ne) Cell.Tiex) then
                cert_fail "node %d severed pin %d not rebuilt as Tiex" d p
            end
            else if Cell.equal_kind (Netlist.kind nl oe) Cell.Input then begin
              if r.new_of_old.(oe) <> ne then
                cert_fail "node %d pin %d: input fanin %d not mapped" d p oe
            end
            else
              match cval oe with
              | Logic4.L0 ->
                if not (Cell.equal_kind (Netlist.kind r.rnl ne) Cell.Tie0)
                then cert_fail "node %d pin %d: const-0 not Tie0" d p
              | Logic4.L1 ->
                if not (Cell.equal_kind (Netlist.kind r.rnl ne) Cell.Tie1)
                then cert_fail "node %d pin %d: const-1 not Tie1" d p
              | _ ->
                if r.new_of_old.(oe) <> ne then
                  cert_fail "node %d pin %d: fanin %d maps to %d, rebuilt %d"
                    d p oe r.new_of_old.(oe) ne)
          ofi
      end)
    r.new_of_old

let backward g ~targets =
  let nl = g.nl in
  let n = Netlist.length nl in
  let cval d = g.hard.(d) in
  (* a primary input is never rewired to a tie even when hard-constant
     (only reset-role inputs can be): keeping it preserves the input
     alphabet, so sliced stimuli replay on the full machine *)
  let is_input d = Cell.equal_kind (Netlist.kind nl d) Cell.Input in
  let const_at d = Logic4.is_binary (cval d) && not (is_input d) in
  let keep = Array.make n false in
  let stack = ref [] in
  let visit d =
    if not keep.(d) then begin
      keep.(d) <- true;
      match Netlist.kind nl d with
      | Cell.Input | Cell.Tie0 | Cell.Tie1 | Cell.Tiex -> ()
      | _ -> stack := d :: !stack
    end
  in
  List.iter visit targets;
  let rec drain () =
    match !stack with
    | [] -> ()
    | d :: tl ->
      stack := tl;
      iter_live_fanins cval nl d (fun _ e -> if not (const_at e) then visit e);
      drain ()
  in
  drain ();
  let b = Netlist.Builder.create () in
  let t0 = Netlist.Builder.tie b Logic4.L0 in
  let t1 = Netlist.Builder.tie b Logic4.L1 in
  let new_of_old = Array.make n (-1) in
  (* pass 1: shells in old-id order (fanins still placeholders) *)
  for d = 0 to n - 1 do
    if keep.(d) then begin
      let roles = Netlist.roles_of nl d in
      let name d' =
        match Netlist.name nl d' with
        | Some s -> s
        | None -> Printf.sprintf "_n%d" d'
      in
      new_of_old.(d) <-
        (match Netlist.kind nl d with
        | Cell.Input -> Netlist.Builder.input ~roles b (name d)
        | Cell.Output -> Netlist.Builder.output ~roles b (name d) t0
        | k ->
          let fanin =
            Array.to_list (Array.map (fun _ -> t0) (Netlist.fanin nl d))
          in
          Netlist.Builder.gate ?name:(Netlist.name nl d) ~roles b k fanin)
    end
  done;
  (* pass 2: rewire — mapped fanin, constant tie, or a fresh Tiex on the
     pin a decided select makes unreadable (never read by any model, so
     the encoding stays equisatisfiable with the full machine) *)
  for d = 0 to n - 1 do
    if keep.(d) && not (is_input d) then begin
      let dead = dead_pin cval nl d in
      let fanin =
        Array.mapi
          (fun p e ->
            if p = dead then Netlist.Builder.tie b Logic4.Z
            else if is_input e then new_of_old.(e)
            else
              match cval e with
              | Logic4.L0 -> t0
              | Logic4.L1 -> t1
              | _ -> new_of_old.(e))
          (Netlist.fanin nl d)
      in
      Netlist.Builder.set_fanin b new_of_old.(d) fanin
    end
  done;
  let rnl = Netlist.Builder.freeze_exn b in
  let old_of_new = Array.make (Netlist.length rnl) (-1) in
  Array.iteri (fun d m -> if m >= 0 then old_of_new.(m) <- d) new_of_old;
  let r = { rnl; new_of_old; old_of_new } in
  certify g r;
  r

(* ------------------------------------------------------------------ *)

let count_edges e =
  Array.fold_left (fun acc a -> acc + Array.length a) 0 e.supports

let pp_stats g rs ppf =
  Format.fprintf ppf "@[<v>slice graph: %d flops, %d outputs@,"
    (Array.length g.flops)
    (Array.length (Netlist.outputs g.nl));
  List.iter
    (fun r ->
      let d = r.sizes in
      Format.fprintf ppf
        "  %-10s edges %5d  slice size min %d median %d p90 %d max %d mean \
         %.1f@,"
        r.label (count_edges r.edges) d.min_ d.median d.p90 d.max_ d.mean)
    rs;
  Format.fprintf ppf "@]"
