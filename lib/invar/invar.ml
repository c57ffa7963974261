open Olfu_logic
open Olfu_netlist
module S = Olfu_sat.Solver
module CB = Olfu_atpg.Cnf.Builder
module Bmc = Olfu_atpg.Bmc
module Implic = Olfu_atpg.Implic
module Lanes = Olfu_sim.Lanes
module A1 = Bigarray.Array1
module Pool = Olfu_pool.Pool
module Trace = Olfu_obs.Trace
module Slice = Olfu_slice.Slice

type candidate =
  | Const of { ff : int; value : bool }
  | Implies of { a : int; av : bool; b : int; bv : bool }
  | Mutex of int * int
  | At_most_one of int array
  | Range of { group : int array; reach : int list }

type certificate = { cert_k : int; cert_rounds : int }
type invariant = { form : candidate; cert : certificate }

type report = {
  total_ffs : int;
  mined : candidate list;
  killed : candidate list;
  unproved : candidate list;
  proved : invariant list;
  k : int;
  seconds : float;
}

let class_name = function
  | Const _ -> "const"
  | Implies _ -> "implies"
  | Mutex _ -> "mutex"
  | At_most_one _ -> "at-most-one"
  | Range _ -> "range"

(* The flop nodes the candidate reads (with duplicates for [Implies]
   on one flop etc.) — the seeds of its cone-of-influence slice. *)
let support = function
  | Const { ff; _ } -> [ ff ]
  | Implies { a; b; _ } -> [ a; b ]
  | Mutex (x, y) -> [ x; y ]
  | At_most_one g -> Array.to_list g
  | Range { group; _ } -> Array.to_list group

let is_const = function Const _ -> true | _ -> false

let node_label nl i =
  match Netlist.name nl i with Some s -> s | None -> Printf.sprintf "n%d" i

let group_label nl g =
  (* the common base of the members' [base[i]] names, if any *)
  match Netlist.name nl g.(0) with
  | Some s -> (
    match String.index_opt s '[' with
    | Some j -> String.sub s 0 j
    | None -> s)
  | None -> Printf.sprintf "n%d.." g.(0)

let pp_candidate nl ppf = function
  | Const { ff; value } ->
    Format.fprintf ppf "const %s = %d" (node_label nl ff)
      (if value then 1 else 0)
  | Implies { a; av; b; bv } ->
    Format.fprintf ppf "%s=%d -> %s=%d" (node_label nl a)
      (if av then 1 else 0)
      (node_label nl b)
      (if bv then 1 else 0)
  | Mutex (a, b) ->
    Format.fprintf ppf "mutex(%s, %s)" (node_label nl a) (node_label nl b)
  | At_most_one g ->
    Format.fprintf ppf "at-most-one %s[%d]" (group_label nl g)
      (Array.length g)
  | Range { group; reach } ->
    Format.fprintf ppf "%s[%d] in {%s}" (group_label nl group)
      (Array.length group)
      (String.concat "," (List.map string_of_int reach))

(* ------------------------------------------------------------------ *)
(* 64-lane random sequential simulation                                *)
(* ------------------------------------------------------------------ *)

(* xorshift64*: deterministic, never zero *)
let rand_word st =
  let x = !st in
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  let x = Int64.logxor x (Int64.shift_left x 17) in
  st := x;
  Int64.mul x 0x2545F4914F6CDD1DL

let seed_state seed =
  let s = Int64.logxor (Int64.of_int seed) 0x9E3779B97F4A7C15L in
  ref (if s = 0L then 88172645463325252L else s)

(* One random mission run: resettable flops start at 0, plain flops at a
   random binary value per lane, reset inputs held inactive (1), every
   other input (and every Tiex) a fresh random binary value per lane per
   cycle, drawn in node-id order.  [observe st] sees each cycle's settled
   values — flop nodes hold the current state. *)
let simulate ~seed ~cycles nl ~observe =
  let rng = seed_state seed in
  let st = Lanes.create (Lanes.compile nl) in
  Lanes.reset st ~init:Logic4.L0;
  Array.iter
    (fun s ->
      match Netlist.kind nl s with
      | Cell.Dffr | Cell.Sdffr -> ()
      | _ -> Lanes.set_state_word st s (rand_word rng))
    (Netlist.seq_nodes nl);
  let drawn = ref [] in
  Netlist.iter_nodes
    (fun i nd ->
      match nd.Netlist.kind with
      | Cell.Input ->
        if Netlist.has_role nl i Netlist.Reset then
          Lanes.set_input st i Logic4.L1
        else drawn := i :: !drawn
      | Cell.Tiex -> drawn := i :: !drawn
      | _ -> ())
    nl;
  let drawn = Array.of_list (List.rev !drawn) in
  for _c = 0 to cycles - 1 do
    Array.iter (fun i -> Lanes.set_input_word st i (rand_word rng)) drawn;
    Lanes.settle st;
    observe st;
    Lanes.clock st
  done

(* Lanes of node [i] holding 1 / 0 / a binary value. *)
let[@inline] ones st i =
  Int64.logand (A1.get (Lanes.hi st) i) (Int64.lognot (A1.get (Lanes.lo st) i))

let[@inline] zeros st i =
  Int64.logand (A1.get (Lanes.lo st) i) (Int64.lognot (A1.get (Lanes.hi st) i))

let[@inline] binary st i =
  Int64.lognot (Int64.logand (A1.get (Lanes.hi st) i) (A1.get (Lanes.lo st) i))

(* Lanes (as a mask) where the candidate is violated in this cycle.  X
   lanes never violate: a candidate is only refuted by a binary
   counterexample, as a fault is only detected by one. *)
let violation st = function
  | Const { ff; value } -> if value then zeros st ff else ones st ff
  | Implies { a; av; b; bv } ->
    let la = if av then ones st a else zeros st a in
    let nb = if bv then zeros st b else ones st b in
    Int64.logand la nb
  | Mutex (a, b) -> Int64.logand (ones st a) (ones st b)
  | At_most_one g ->
    let one = ref 0L and two = ref 0L in
    Array.iter
      (fun f ->
        let o = ones st f in
        two := Int64.logor !two (Int64.logand !one o);
        one := Int64.logor !one o)
      g;
    !two
  | Range { group; reach } ->
    let allbin =
      Array.fold_left
        (fun m f -> Int64.logand m (binary st f))
        Int64.minus_one group
    in
    let ok =
      List.fold_left
        (fun acc v ->
          let m = ref allbin in
          Array.iteri
            (fun k f ->
              m :=
                Int64.logand !m
                  (if (v lsr k) land 1 = 1 then ones st f else zeros st f))
            group;
          Int64.logor acc !m)
        0L reach
    in
    Int64.logand allbin (Int64.lognot ok)

(* ------------------------------------------------------------------ *)
(* Mining                                                              *)
(* ------------------------------------------------------------------ *)

let split_bit name =
  match String.rindex_opt name '[' with
  | Some i when String.length name > i + 2 && name.[String.length name - 1] = ']'
    -> (
    match int_of_string_opt (String.sub name (i + 1) (String.length name - i - 2))
    with
    | Some b when b >= 0 -> Some (String.sub name 0 i, b)
    | _ -> None)
  | _ -> None

(* Cluster flop names [base[i]] into registers: only complete groups
   (bits 0..w-1 all present exactly once) are trusted. *)
let registers nl =
  let seqs = Netlist.seq_nodes nl in
  let tbl = Hashtbl.create 37 in
  Array.iter
    (fun s ->
      match Netlist.name nl s with
      | None -> ()
      | Some nm -> (
        match split_bit nm with
        | None -> ()
        | Some (base, bit) ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt tbl base) in
          Hashtbl.replace tbl base ((bit, s) :: prev)))
    seqs;
  let groups = ref [] in
  Hashtbl.iter
    (fun _base members ->
      let w = List.length members in
      if w >= 2 then begin
        let sorted = List.sort compare members in
        let complete =
          List.for_all2
            (fun k (bit, _) -> k = bit)
            (List.init w (fun k -> k))
            sorted
        in
        if complete then
          groups := Array.of_list (List.map snd sorted) :: !groups
      end)
    tbl;
  (* deterministic order: by first member's node id *)
  List.sort (fun a b -> compare a.(0) b.(0)) !groups

let max_range_values = 32
let max_group_width = 16
let pairing_cap = 48

(* The miner's and the filter's runs: different seeds, so the filter
   sees fresh stimuli. *)
let mine_cycles = 96
let filter_seed = 0x11A9
let filter_cycles = 256
let max_candidates = 512

let mine ?(seed = 0x11A8) nl =
  let seqs = Netlist.seq_nodes nl in
  let nseq = Array.length seqs in
  let groups =
    List.filter (fun g -> Array.length g <= max_group_width) (registers nl)
  in
  (* per-flop value coverage *)
  let seen0 = Array.make nseq false and seen1 = Array.make nseq false in
  let pos = Hashtbl.create 97 in
  Array.iteri (fun k s -> Hashtbl.replace pos s k) seqs;
  (* per-group observed value sets *)
  let gsets = List.map (fun g -> (g, Hashtbl.create 17, ref false)) groups in
  (* pairing set: one-bit registers and bits of narrow registers *)
  let grouped = Hashtbl.create 97 in
  List.iter (Array.iter (fun s -> Hashtbl.replace grouped s ())) groups;
  let pairset =
    let bits = ref [] in
    Array.iter
      (fun s -> if not (Hashtbl.mem grouped s) then bits := s :: !bits)
      seqs;
    List.iter
      (fun g -> if Array.length g <= 4 then Array.iter (fun s -> bits := s :: !bits) g)
      groups;
    let l = List.sort_uniq compare !bits in
    Array.of_list (List.filteri (fun i _ -> i < pairing_cap) l)
  in
  let np = Array.length pairset in
  (* combo coverage per unordered pair: bit0 = 00 seen, 1 = 01, 2 = 10, 3 = 11
     (a-value is the high bit; pairs indexed i*np+j for i<j) *)
  let combos = Array.make (np * np) 0 in
  let observe st =
    Array.iteri
      (fun k s ->
        if ones st s <> 0L then seen1.(k) <- true;
        if zeros st s <> 0L then seen0.(k) <- true)
      seqs;
    List.iter
      (fun (g, set, saturated) ->
        if not !saturated then begin
          let w = Array.length g in
          let allbin =
            Array.fold_left
              (fun m f -> Int64.logand m (binary st f))
              Int64.minus_one g
          in
          for lane = 0 to 63 do
            if Int64.logand allbin (Int64.shift_left 1L lane) <> 0L then begin
              let v = ref 0 in
              for k = 0 to w - 1 do
                if
                  Int64.logand (ones st g.(k)) (Int64.shift_left 1L lane)
                  <> 0L
                then v := !v lor (1 lsl k)
              done;
              if not (Hashtbl.mem set !v) then
                if Hashtbl.length set >= max_range_values then saturated := true
                else Hashtbl.replace set !v ()
            end
          done
        end)
      gsets;
    for i = 0 to np - 1 do
      let oi = ones st pairset.(i) and zi = zeros st pairset.(i) in
      for j = i + 1 to np - 1 do
        let oj = ones st pairset.(j) and zj = zeros st pairset.(j) in
        let c = ref combos.(i * np + j) in
        if Int64.logand zi zj <> 0L then c := !c lor 1;
        if Int64.logand zi oj <> 0L then c := !c lor 2;
        if Int64.logand oi zj <> 0L then c := !c lor 4;
        if Int64.logand oi oj <> 0L then c := !c lor 8;
        combos.(i * np + j) <- !c
      done
    done
  in
  simulate ~seed ~cycles:mine_cycles nl ~observe;
  let consts = ref [] in
  let is_const_ff = Array.make nseq false in
  Array.iteri
    (fun k s ->
      if seen0.(k) && not seen1.(k) then begin
        is_const_ff.(k) <- true;
        consts := Const { ff = s; value = false } :: !consts
      end
      else if seen1.(k) && not seen0.(k) then begin
        is_const_ff.(k) <- true;
        consts := Const { ff = s; value = true } :: !consts
      end)
    seqs;
  let ranges = ref [] and amos = ref [] in
  List.iter
    (fun (g, set, saturated) ->
      if not !saturated then begin
        let w = Array.length g in
        let values = Hashtbl.fold (fun v () acc -> v :: acc) set [] in
        let values = List.sort compare values in
        let nvals = List.length values in
        let full = w < 6 && nvals = 1 lsl w in
        if nvals >= 1 && not full then
          ranges := Range { group = g; reach = values } :: !ranges
        else if
          w >= 2
          && List.for_all
               (fun v -> v land (v - 1) = 0 (* popcount <= 1 *))
               values
        then amos := At_most_one g :: !amos
      end
      else if
        Array.length g >= 2
        && Hashtbl.fold
             (fun v () acc -> acc && v land (v - 1) = 0)
             set true
      then
        (* value set overflowed but every observed code was one-hot/idle *)
        amos := At_most_one g :: !amos)
    gsets;
  let pair_cands = ref [] in
  for i = 0 to np - 1 do
    for j = i + 1 to np - 1 do
      let a = pairset.(i) and b = pairset.(j) in
      let ka = Hashtbl.find pos a and kb = Hashtbl.find pos b in
      (* pairs where one side is a constant candidate carry no news *)
      if
        (not is_const_ff.(ka)) && (not is_const_ff.(kb))
        && seen0.(ka) && seen1.(ka) && seen0.(kb) && seen1.(kb)
      then begin
        let c = combos.(i * np + j) in
        if c land 8 = 0 then pair_cands := Mutex (a, b) :: !pair_cands;
        if c land 4 = 0 then
          pair_cands := Implies { a; av = true; b; bv = true } :: !pair_cands;
        if c land 2 = 0 then
          pair_cands :=
            Implies { a; av = false; b; bv = false } :: !pair_cands;
        if c land 1 = 0 then
          pair_cands := Implies { a; av = false; b; bv = true } :: !pair_cands
      end
    done
  done;
  let all =
    List.rev !consts @ List.rev !ranges @ List.rev !amos
    @ List.rev !pair_cands
  in
  List.filteri (fun i _ -> i < max_candidates) all

(* ------------------------------------------------------------------ *)
(* Filter                                                              *)
(* ------------------------------------------------------------------ *)

let filter nl cands =
  let arr = Array.of_list cands in
  let alive = Array.make (Array.length arr) true in
  let observe st =
    Array.iteri
      (fun i c -> if alive.(i) && violation st c <> 0L then alive.(i) <- false)
      arr
  in
  simulate ~seed:filter_seed ~cycles:filter_cycles nl ~observe;
  let survivors = ref [] and killed = ref [] in
  Array.iteri
    (fun i c -> if alive.(i) then survivors := c :: !survivors
      else killed := c :: !killed)
    arr;
  (List.rev !survivors, List.rev !killed)

(* ------------------------------------------------------------------ *)
(* Proof: strengthening-set k-induction                                *)
(* ------------------------------------------------------------------ *)

let cand_lit b state_of = function
  | Const { ff; value } ->
    let l = state_of ff in
    if value then l else -l
  | Implies { a; av; b = bb; bv } ->
    let la = state_of a and lb = state_of bb in
    CB.mk_or b [ (if av then -la else la); (if bv then lb else -lb) ]
  | Mutex (x, y) -> -CB.mk_and b [ state_of x; state_of y ]
  | At_most_one g ->
    let ls = Array.to_list (Array.map state_of g) in
    let rec pairs = function
      | [] -> []
      | x :: tl -> List.map (fun y -> -CB.mk_and b [ x; y ]) tl @ pairs tl
    in
    CB.mk_and b (pairs ls)
  | Range { group; reach } ->
    CB.mk_or b
      (List.map
         (fun v ->
           CB.mk_and b
             (Array.to_list
                (Array.mapi
                   (fun k f ->
                     let l = state_of f in
                     if (v lsr k) land 1 = 1 then l else -l)
                   group)))
         reach)

let state_literals b ~state_of invs =
  List.map (fun inv -> cand_lit b state_of inv.form) invs

(* Every query runs on a fresh solver so its outcome (including budget
   exhaustion) depends only on the formula — never on which worker ran
   it or what it solved before: the Houdini result is jobs-invariant.  A
   query that exhausts [conflict_limit] counts as a failure. *)
let conflict_limit = 100_000

let holds s =
  match S.solve ~conflict_limit s with S.Unsat -> true | _ -> false

let base_holds ~k nl cand =
  let s = S.create () in
  let b = CB.create s in
  let states = Bmc.unroll b nl ~steps:(k - 1) ~init:(Bmc.reset_state b nl) in
  S.add_clause s
    (List.init k (fun j -> -cand_lit b (Bmc.state_lit states.(j)) cand));
  holds s

let step_holds ~k nl survivors cand =
  let s = S.create () in
  let b = CB.create s in
  let states = Bmc.unroll b nl ~steps:k ~init:(Bmc.free_state b nl) in
  for j = 0 to k - 1 do
    let st = Bmc.state_lit states.(j) in
    Array.iter (fun c -> S.add_clause s [ cand_lit b st c ]) survivors
  done;
  S.add_clause s [ -cand_lit b (Bmc.state_lit states.(k)) cand ];
  holds s

let check_k fn k =
  if k < 1 then invalid_arg (Printf.sprintf "Invar.%s: k %d < 1" fn k)

let bounded_check ?(cycles = 8) nl cand =
  check_k "bounded_check" cycles;
  base_holds ~k:cycles nl cand

(* Component machines for sliced proving (k = 1 only).

   Two candidates are {e entangled} when the hard-severed backward
   closures of their supports share a flop — then the step query of one
   can read state the other constrains at cycle 0, so they must live on
   one machine.  The transitive grouping is a union-find over flop
   ordinals: each candidate unions its closure, and its component is the
   root of its first support flop.  Per component one certified backward
   machine is built; every query of a member candidate runs there, with
   the survivor assertions filtered to the same component.  Survivors of
   other components constrain disjoint variables and are jointly
   satisfiable (each passed the base pass, so the post-reset states
   satisfy them all), hence dropping them never changes a verdict. *)
let rename_cand m = function
  | Const { ff; value } -> Const { ff = m ff; value }
  | Implies { a; av; b; bv } -> Implies { a = m a; av; b = m b; bv }
  | Mutex (x, y) -> Mutex (m x, m y)
  | At_most_one g -> At_most_one (Array.map m g)
  | Range { group; reach } -> Range { group = Array.map m group; reach }

let component_machines g cands =
  let nf = Array.length g.Slice.flops in
  let parent = Array.init nf (fun i -> i) in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(ra) <- rb
  in
  let seeds =
    Array.map
      (fun c ->
        let ords = List.map (fun f -> g.Slice.ford.(f)) (support c) in
        let seed = List.hd ords in
        Array.iteri
          (fun o inc -> if inc then union seed o)
          (Slice.backward_flops g.Slice.hard_edges ords);
        seed)
      cands
  in
  let machines = Hashtbl.create 17 in
  let comp_of_cand =
    Array.map
      (fun seed ->
        let root = find seed in
        if not (Hashtbl.mem machines root) then begin
          (* the closure of one member need not list every flop of the
             union — collect the whole component *)
          let targets = ref [] in
          Array.iteri
            (fun o f -> if find o = root then targets := f :: !targets)
            g.Slice.flops;
          let targets = List.sort_uniq Int.compare !targets in
          Hashtbl.replace machines root (Slice.backward g ~targets)
        end;
        root)
      seeds
  in
  (comp_of_cand, machines)

let prove ?(k = 1) ?jobs ?(trace = Trace.null) ?(sliced = true) nl cands =
  check_k "prove" k;
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  let shard label arr check =
    let n = Array.length arr in
    let oks = Array.make n false in
    Pool.with_pool ~jobs (fun pool ->
        (* one candidate per chunk; each index writes its own slot *)
        Pool.parallel_chunks pool ~n ~chunk:1 ~trace ~label
          (fun ~worker:_ ~lo ~hi ->
            for i = lo to hi - 1 do
              oks.(i) <- check i arr.(i)
            done));
    oks
  in
  let arr = Array.of_list cands in
  (* slicing is exact only for k = 1 (at k >= 2 a survivor of another
     component constrains the component's own cycle-1 state through
     shared inputs of the two transition copies; rather than reason
     about that, fall back to the full machine) *)
  let ctx =
    if sliced && k = 1 && Array.length arr > 0 then begin
      let g = Slice.get nl in
      let comp_of, machines = component_machines g arr in
      let comp_tbl = Hashtbl.create 97 in
      Array.iteri
        (fun i c -> Hashtbl.replace comp_tbl c comp_of.(i))
        arr;
      Some (machines, comp_tbl)
    end
    else None
  in
  let base_check =
    match ctx with
    | None -> fun _ c -> base_holds ~k nl c
    | Some (machines, comp_tbl) ->
      fun _ c ->
        let red = Hashtbl.find machines (Hashtbl.find comp_tbl c) in
        let m d = red.Slice.new_of_old.(d) in
        base_holds ~k red.Slice.rnl (rename_cand m c)
  in
  let step_check cur =
    match ctx with
    | None -> fun _ c -> step_holds ~k nl cur c
    | Some (machines, comp_tbl) ->
      fun _ c ->
        let root = Hashtbl.find comp_tbl c in
        let red = Hashtbl.find machines root in
        let m d = red.Slice.new_of_old.(d) in
        let peers =
          Array.of_list
            (Array.to_list cur
            |> List.filter (fun c' -> Hashtbl.find comp_tbl c' = root)
            |> List.map (rename_cand m))
        in
        step_holds ~k red.Slice.rnl peers (rename_cand m c)
  in
  let base_ok = shard "invar-base" arr base_check in
  let survivors = ref [] in
  Array.iteri (fun i c -> if base_ok.(i) then survivors := c :: !survivors) arr;
  let survivors = ref (Array.of_list (List.rev !survivors)) in
  let rounds = ref 0 in
  let stable = ref (Array.length !survivors = 0) in
  while not !stable do
    incr rounds;
    let cur = !survivors in
    let ok = shard "invar-step" cur (step_check cur) in
    if Array.for_all (fun x -> x) ok then stable := true
    else begin
      let keep = ref [] in
      Array.iteri (fun i c -> if ok.(i) then keep := c :: !keep) cur;
      survivors := Array.of_list (List.rev !keep);
      if Array.length !survivors = 0 then stable := true
    end
  done;
  let cert = { cert_k = k; cert_rounds = !rounds } in
  let proved_set = Hashtbl.create 97 in
  Array.iter (fun c -> Hashtbl.replace proved_set c ()) !survivors;
  let proved =
    Array.to_list (Array.map (fun form -> { form; cert }) !survivors)
  in
  let failed = List.filter (fun c -> not (Hashtbl.mem proved_set c)) cands in
  (proved, failed)

(* ------------------------------------------------------------------ *)
(* Pipeline                                                            *)
(* ------------------------------------------------------------------ *)

let run ?(k = 1) ?jobs ?(trace = Trace.null) ?(no_prove = false) nl =
  check_k "run" k;
  let t0 = Unix.gettimeofday () in
  Trace.span trace ~cat:"engine" "invar" @@ fun () ->
  let mined = mine nl in
  let survivors, killed = filter nl mined in
  let proved, unproved =
    if no_prove then ([], survivors) else prove ~k ?jobs ~trace nl survivors
  in
  let r =
    {
      total_ffs = Array.length (Netlist.seq_nodes nl);
      mined;
      killed;
      unproved;
      proved;
      k;
      seconds = Unix.gettimeofday () -. t0;
    }
  in
  if Trace.enabled trace then begin
    Trace.add trace "invar.mined" (List.length mined);
    Trace.add trace "invar.killed" (List.length killed);
    Trace.add trace "invar.proved" (List.length proved);
    Trace.add trace "invar.unproved" (List.length unproved)
  end;
  r

let count_by_class r =
  let classes = [ "const"; "implies"; "mutex"; "at-most-one"; "range" ] in
  List.map
    (fun cls ->
      let p =
        List.length
          (List.filter (fun i -> class_name i.form = cls) r.proved)
      in
      let u =
        List.length (List.filter (fun c -> class_name c = cls) r.unproved)
        + List.length (List.filter (fun c -> class_name c = cls) r.killed)
      in
      (cls, p, u))
    classes

let pp nl ppf r =
  Format.fprintf ppf "@[<v>invariants (%d flops): %d mined, %d sim-killed, \
                      %d proved (k=%d), %d unproved@,"
    r.total_ffs (List.length r.mined) (List.length r.killed)
    (List.length r.proved) r.k (List.length r.unproved);
  List.iter
    (fun (cls, p, u) ->
      if p + u > 0 then
        Format.fprintf ppf "  %-12s proved %3d  refuted/open %3d@," cls p u)
    (count_by_class r);
  List.iter
    (fun i ->
      Format.fprintf ppf "  proved: %a  [k=%d, rounds=%d]@,"
        (pp_candidate nl) i.form i.cert.cert_k i.cert.cert_rounds)
    r.proved;
  Format.fprintf ppf "mine+filter+prove time: %.3f s@]" r.seconds

(* ------------------------------------------------------------------ *)
(* Consumption (proved invariants only)                                *)
(* ------------------------------------------------------------------ *)

let range_const_bits group reach =
  (* bits every reachable value agrees on *)
  let w = Array.length group in
  List.init w (fun kbit ->
      match reach with
      | [] -> None
      | v0 :: _ ->
        let b0 = (v0 lsr kbit) land 1 in
        if List.for_all (fun v -> (v lsr kbit) land 1 = b0) reach then
          Some (group.(kbit), b0 = 1)
        else None)
  |> List.filter_map (fun x -> x)

let const_facts r =
  let facts = ref [] in
  List.iter
    (fun i ->
      match i.form with
      | Const { ff; value } -> facts := (ff, value) :: !facts
      | Range { group; reach } ->
        facts := range_const_bits group reach @ !facts
      | _ -> ())
    r.proved;
  List.sort_uniq compare !facts

let assume_facts r =
  List.map
    (fun (ff, v) -> (ff, if v then Logic4.L1 else Logic4.L0))
    (const_facts r)

let edges r =
  let lit = Implic.lit in
  let consts = const_facts r in
  let const_tbl = Hashtbl.create 17 in
  List.iter (fun (ff, v) -> Hashtbl.replace const_tbl ff v) consts;
  let es = ref [] in
  let mutex a b = es := (lit a true, lit b false) :: !es in
  List.iter
    (fun i ->
      match i.form with
      | Const _ -> ()
      | Implies { a; av; b; bv } -> es := (lit a av, lit b bv) :: !es
      | Mutex (a, b) -> mutex a b
      | At_most_one g ->
        Array.iteri
          (fun x a ->
            Array.iteri (fun y b -> if x < y then mutex a b) g)
          g
      | Range { group; reach } ->
        let w = Array.length group in
        for i' = 0 to w - 1 do
          for j = 0 to w - 1 do
            if
              i' <> j
              && (not (Hashtbl.mem const_tbl group.(i')))
              && not (Hashtbl.mem const_tbl group.(j))
            then
              List.iter
                (fun x ->
                  let ys =
                    List.sort_uniq compare
                      (List.filter_map
                         (fun v ->
                           if (v lsr i') land 1 = x then
                             Some ((v lsr j) land 1)
                           else None)
                         reach)
                  in
                  match ys with
                  | [ y ] ->
                    es := (lit group.(i') (x = 1), lit group.(j) (y = 1)) :: !es
                  | _ -> ())
                [ 0; 1 ]
          done
        done)
    r.proved;
  List.sort_uniq compare !es

(* --- lint bridge --- *)

let lint_facts r =
  let pairwise g =
    let acc = ref [] in
    Array.iteri
      (fun i a ->
        Array.iteri (fun j b -> if i < j then acc := (a, b) :: !acc) g)
      g;
    List.rev !acc
  in
  let mutex =
    List.concat_map
      (fun inv ->
        match inv.form with
        | Mutex (a, b) -> [ (a, b) ]
        | At_most_one g -> pairwise g
        | _ -> [])
      r.proved
  in
  let ranges =
    List.filter_map
      (fun inv ->
        match inv.form with
        | Range { group; reach } -> Some (group, reach)
        | _ -> None)
      r.proved
  in
  {
    Olfu_lint.Ctx.inv_label = Printf.sprintf "induction (k=%d)" r.k;
    inv_consts = const_facts r;
    inv_mutex = List.sort_uniq compare mutex;
    inv_ranges = ranges;
  }
