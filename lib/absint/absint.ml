open Olfu_logic
open Olfu_soc
open Olfu_sbst
module Memmap = Olfu_manip.Memmap
module Script = Olfu_manip.Script
module Netlist = Olfu_netlist.Netlist

(* Sound abstract interpretation of tcore images: a worklist fixpoint
   over the word-indexed CFG with {!Aval} register states, plus an outer
   fixpoint over a flow-insensitive abstract store (weak updates).  Any
   situation the abstraction cannot bound — a store that may fall into
   the program image, an indirect jump with unbounded targets, control
   leaving the image — degrades the whole result, and every query then
   answers with its top ("nothing proven"), keeping all claims sound. *)

type access = { a_addr : Aval.t; a_value : Aval.t }

type t = {
  xlen : int;
  origin : int;
  entry : int;
  image : int array;
  pre : Aval.t array option array;  (* register state before each word *)
  stores : (int * access) list;  (* by word index of the Sw *)
  loads : (int * access) list;  (* addr and result of each Lw *)
  degraded : string option;
  passes : int;
}

exception Degrade of string
exception Explode

let sext8 v = if v land 0x80 <> 0 then v - 256 else v

let hull_overlap av ~lo ~hi =
  match Aval.bounds av with
  | None -> false
  | Some (l, h) -> l <= hi && h >= lo

let analyze ?(xlen = 16) ?(origin = 0) ?entry image =
  if xlen < 16 then invalid_arg "Absint.analyze: xlen >= 16";
  let m = (1 lsl xlen) - 1 in
  let n = Array.length image in
  if n = 0 then invalid_arg "Absint.analyze: empty image";
  if origin < 0 || origin + n - 1 > m then
    invalid_arg "Absint.analyze: image outside the address space";
  let entry = Option.value ~default:origin entry in
  if entry < origin || entry >= origin + n then
    invalid_arg "Absint.analyze: entry outside the image";
  let instrs = Array.map Isa.decode image in
  let pre : Aval.t array option array = Array.make n None in
  let stores : (int, access) Hashtbl.t = Hashtbl.create 16 in
  let loads : (int, access) Hashtbl.t = Hashtbl.create 16 in
  let store_changed = ref false in
  let wl = Queue.create () in
  let record_store i addr value =
    (* a store we cannot keep away from the image could rewrite the
       program under us: give up instead of guessing *)
    if hull_overlap addr ~lo:origin ~hi:(origin + n - 1) then
      raise
        (Degrade
           (Printf.sprintf "store at 0x%X may overwrite the program image"
              (origin + i)));
    match Hashtbl.find_opt stores i with
    | None ->
      Hashtbl.replace stores i { a_addr = addr; a_value = value };
      store_changed := true
    | Some old ->
      let a = Aval.widen old.a_addr addr and v = Aval.widen old.a_value value in
      if not (Aval.equal a old.a_addr && Aval.equal v old.a_value) then begin
        Hashtbl.replace stores i { a_addr = a; a_value = v };
        store_changed := true
      end
  in
  let record_load i addr value =
    (* same widening discipline as [record_store]: the instruction runs
       once per distinct abstract state in explore mode, and the recorded
       access must cover every one of them, not just the last *)
    match Hashtbl.find_opt loads i with
    | None -> Hashtbl.replace loads i { a_addr = addr; a_value = value }
    | Some old ->
      let a = Aval.widen old.a_addr addr and v = Aval.widen old.a_value value in
      if not (Aval.equal a old.a_addr && Aval.equal v old.a_value) then
        Hashtbl.replace loads i { a_addr = a; a_value = v }
  in
  let load_value addr =
    (* never-written memory reads 0; the image and any may-aliasing
       store contribute their values *)
    let acc = ref (Aval.exact xlen 0) in
    if hull_overlap addr ~lo:origin ~hi:(origin + n - 1) then
      for i = 0 to n - 1 do
        if Aval.contains addr (origin + i) then
          acc := Aval.join !acc (Aval.exact xlen image.(i))
      done;
    Hashtbl.iter
      (fun _ s ->
        let may_alias =
          match (Aval.values addr, Aval.values s.a_addr) with
          | Some xs, Some ys -> List.exists (fun x -> List.mem x ys) xs
          | _ -> (
            match (Aval.bounds addr, Aval.bounds s.a_addr) with
            | Some (l1, h1), Some (l2, h2) -> l1 <= h2 && l2 <= h1
            | _ -> false)
        in
        if may_alias then acc := Aval.join !acc s.a_value)
      stores;
    !acc
  in
  let bounds_check tgt =
    if tgt < origin || tgt >= origin + n then
      raise
        (Degrade (Printf.sprintf "control reaches 0x%X outside the image" tgt))
  in
  (* join-mode flow: widen states into one abstract state per word *)
  let join_flow tgt st =
    bounds_check tgt;
    let i = tgt - origin in
    match pre.(i) with
    | None ->
      pre.(i) <- Some (Array.copy st);
      Queue.add i wl
    | Some old ->
      let changed = ref false in
      for r = 0 to 15 do
        let j = Aval.widen old.(r) st.(r) in
        if not (Aval.equal j old.(r)) then begin
          old.(r) <- j;
          changed := true
        end
      done;
      if !changed then Queue.add i wl
  in
  let exec ~flow i st =
    let pc = origin + i in
    let next = (pc + 1) land m in
    let straight f =
      let st' = Array.copy st in
      f st';
      flow next st'
    in
    let binop rd rs f = straight (fun s -> s.(rd) <- f st.(rd) st.(rs)) in
    let branch rs off ~taken_on_zero =
      let tgt = (next + sext8 off) land m in
      let zero_dst = if taken_on_zero then tgt else next
      and nz_dst = if taken_on_zero then next else tgt in
      (match Aval.refine_eq st.(rs) 0 with
      | Some z ->
        let s = Array.copy st in
        s.(rs) <- z;
        flow zero_dst s
      | None -> ());
      match Aval.refine_ne st.(rs) 0 with
      | Some nz ->
        let s = Array.copy st in
        s.(rs) <- nz;
        flow nz_dst s
      | None -> ()
    in
    match instrs.(i) with
    | Isa.Nop -> straight (fun _ -> ())
    | Isa.Li (rd, v) -> straight (fun s -> s.(rd) <- Aval.exact xlen (v land 0xFF))
    | Isa.Addi (rd, v) ->
      straight (fun s -> s.(rd) <- Aval.add st.(rd) (Aval.exact xlen (sext8 v)))
    | Isa.Add (rd, rs) -> binop rd rs Aval.add
    | Isa.Sub (rd, rs) -> binop rd rs Aval.sub
    | Isa.And_ (rd, rs) -> binop rd rs Aval.logand
    | Isa.Or_ (rd, rs) -> binop rd rs Aval.logor
    | Isa.Xor_ (rd, rs) -> binop rd rs Aval.logxor
    | Isa.Mul (rd, rs) -> binop rd rs Aval.mul
    | Isa.Mulh (rd, rs) -> binop rd rs Aval.mulh
    | Isa.Div (rd, rs) -> binop rd rs Aval.div
    | Isa.Rem (rd, rs) -> binop rd rs Aval.rem_
    | Isa.Sll (rd, sh) -> straight (fun s -> s.(rd) <- Aval.shift_left st.(rd) sh)
    | Isa.Srl (rd, sh) ->
      straight (fun s -> s.(rd) <- Aval.shift_right st.(rd) sh)
    | Isa.Lw (rd, rs) ->
      let v = load_value st.(rs) in
      record_load i st.(rs) v;
      straight (fun s -> s.(rd) <- v)
    | Isa.Sw (rd, rs) ->
      record_store i st.(rs) st.(rd);
      straight (fun _ -> ())
    | Isa.Beqz (rs, off) -> branch rs off ~taken_on_zero:true
    | Isa.Bnez (rs, off) -> branch rs off ~taken_on_zero:false
    | Isa.Jr rs -> (
      match Aval.values st.(rs) with
      | Some tgts -> List.iter (fun tgt -> flow tgt (Array.copy st)) tgts
      | None ->
        raise
          (Degrade
             (Printf.sprintf "indirect jump at 0x%X with unbounded target" pc)))
    | Isa.Halt -> ()
  in
  let reset_pass () =
    Array.fill pre 0 n None;
    Hashtbl.reset loads;
    store_changed := false
  in
  let entry_state () = Array.init 16 (fun _ -> Aval.exact xlen 0) in
  (* Exact exploration: the collecting semantics without joins.  Each
     distinct abstract register state is propagated separately (skipping
     states subsumed by one already seen at that word), so a counted loop
     is effectively unrolled its concrete number of iterations and an
     incremented pointer never needs a widen.  SBST routines are small and
     terminating, so this converges in about trace-length steps; a budget
     guards against pathological inputs, falling back to the join/widen
     fixpoint below. *)
  let explore_pass () =
    reset_pass ();
    let visited : Aval.t array list array = Array.make n [] in
    let q = Queue.create () in
    let budget = ref 200_000 in
    let state_leq a b =
      let ok = ref true in
      for r = 0 to 15 do
        if not (Aval.equal (Aval.join a.(r) b.(r)) b.(r)) then ok := false
      done;
      !ok
    in
    let flow tgt st =
      bounds_check tgt;
      let i = tgt - origin in
      if not (List.exists (state_leq st) visited.(i)) then begin
        visited.(i) <- Array.copy st :: visited.(i);
        (match pre.(i) with
        | None -> pre.(i) <- Some (Array.copy st)
        | Some old ->
          for r = 0 to 15 do
            old.(r) <- Aval.join old.(r) st.(r)
          done);
        Queue.add (i, Array.copy st) q
      end
    in
    flow entry (entry_state ());
    while not (Queue.is_empty q) do
      let i, st = Queue.pop q in
      decr budget;
      if !budget < 0 then raise Explode;
      exec ~flow i st
    done
  in
  let join_pass () =
    reset_pass ();
    pre.(entry - origin) <- Some (entry_state ());
    Queue.add (entry - origin) wl;
    while not (Queue.is_empty wl) do
      let i = Queue.pop wl in
      match pre.(i) with None -> () | Some st -> exec ~flow:join_flow i (Array.copy st)
    done
  in
  let run_pass () = try explore_pass () with Explode -> join_pass () in
  let passes = ref 0 in
  let degraded = ref None in
  (try
     let continue_ = ref true in
     while !continue_ do
       incr passes;
       if !passes > 64 then raise (Degrade "abstract store did not converge");
       run_pass ();
       if not !store_changed then continue_ := false
     done
   with Degrade msg ->
     Queue.clear wl;
     degraded := Some msg);
  let dump tbl =
    Hashtbl.fold (fun i a acc -> (i, a) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  {
    xlen;
    origin;
    entry;
    image;
    pre;
    stores = dump stores;
    loads = dump loads;
    degraded = !degraded;
    passes = !passes;
  }

let of_items ?entry cfg items =
  let origin = cfg.Soc.rom.Memmap.lo in
  analyze ~xlen:cfg.Soc.xlen ~origin ?entry (Asm.assemble ~origin items)

let of_program cfg (p : Programs.t) = of_items cfg p.Programs.items
let degraded t = t.degraded
let passes t = t.passes
let image_length t = Array.length t.image
let origin t = t.origin

let pc_reachable t pc =
  match t.degraded with
  | Some _ -> true
  | None ->
    pc >= t.origin && pc < t.origin + Array.length t.image
    && t.pre.(pc - t.origin) <> None

let dead_pcs t =
  match t.degraded with
  | Some _ -> []
  | None ->
    let acc = ref [] in
    for i = Array.length t.image - 1 downto 0 do
      if t.pre.(i) = None then acc := (t.origin + i) :: !acc
    done;
    !acc

let reg_at t ~pc r =
  match t.degraded with
  | Some _ -> Aval.top t.xlen
  | None ->
    if pc < t.origin || pc >= t.origin + Array.length t.image then Aval.bot t.xlen
    else (
      match t.pre.(pc - t.origin) with
      | None -> Aval.bot t.xlen
      | Some st -> st.(r))

let may_write t ~addr =
  match t.degraded with
  | Some _ -> true
  | None -> List.exists (fun (_, s) -> Aval.contains s.a_addr addr) t.stores

let store_value t ~addr =
  match t.degraded with
  | Some _ -> Aval.top t.xlen
  | None ->
    List.fold_left
      (fun acc (_, s) ->
        if Aval.contains s.a_addr addr then Aval.join acc s.a_value else acc)
      (Aval.bot t.xlen) t.stores

let store_sites t = List.length t.stores

let may_read t ~addr =
  match t.degraded with
  | Some _ -> true
  | None -> List.exists (fun (_, s) -> Aval.contains s.a_addr addr) t.loads

let load_result t ~addr =
  match t.degraded with
  | Some _ -> Aval.top t.xlen
  | None ->
    List.fold_left
      (fun acc (_, s) ->
        if Aval.contains s.a_addr addr then Aval.join acc s.a_value else acc)
      (Aval.bot t.xlen) t.loads

(* --- address-bit queries ------------------------------------------------ *)

(* toggle-join: a bit is constant only while every access agrees on it,
   and an unknown access poisons it for good (unlike Logic4.merge, whose
   X is the bottom of the information ordering) *)
let bjoin a b =
  match (a, b) with
  | Logic4.X, _ | _, Logic4.X -> Logic4.X
  | a, b -> if Logic4.equal a b then a else Logic4.X

let fold_accesses t ~init ~f =
  let acc = ref init in
  Array.iteri
    (fun i st -> if st <> None then acc := f !acc (Aval.exact t.xlen (t.origin + i)))
    t.pre;
  List.iter (fun (_, s) -> acc := f !acc s.a_addr) t.loads;
  List.iter (fun (_, s) -> acc := f !acc s.a_addr) t.stores;
  !acc

let addr_bit ts ~bit =
  if List.exists (fun t -> t.degraded <> None) ts then Logic4.X
  else
    List.fold_left
      (fun acc t ->
        fold_accesses t ~init:acc ~f:(fun acc av ->
            match acc with
            | Some b -> Some (bjoin b (Aval.bit av bit))
            | None -> Some (Aval.bit av bit)))
      None ts
    |> Option.value ~default:Logic4.X

let constant_addr_bits ~width ts =
  List.filter_map
    (fun bit ->
      match addr_bit ts ~bit with
      | Logic4.L0 -> Some (bit, false)
      | Logic4.L1 -> Some (bit, true)
      | _ -> None)
    (List.init width (fun i -> i))

let region_covers (r : Memmap.region) av =
  match Aval.values av with
  | Some vs -> vs <> [] && List.for_all (fun v -> r.Memmap.lo <= v && v <= r.hi) vs
  | None -> (
    match Aval.bounds av with
    | None -> true
    | Some (lo, hi) -> r.Memmap.lo <= lo && hi <= r.hi)

let covered regions av =
  match Aval.values av with
  | Some vs ->
    List.for_all
      (fun v -> List.exists (fun r -> r.Memmap.lo <= v && v <= r.hi) regions)
      vs
  | None -> List.exists (fun r -> region_covers r av) regions

let touched_regions ts regions =
  List.filter
    (fun (r : Memmap.region) ->
      List.exists
        (fun t ->
          t.degraded <> None
          || fold_accesses t ~init:false ~f:(fun acc av ->
                 acc || hull_overlap av ~lo:r.Memmap.lo ~hi:r.hi))
        ts)
    regions

let region_constant_bits ~width ts regions =
  match touched_regions ts regions with
  | [] -> []
  | touched -> Memmap.constant_bits ~width touched

type check = { ok : bool; violations : string list }

let cross_check ~width ts regions =
  let violations = ref [] in
  let add fmt = Format.kasprintf (fun s -> violations := s :: !violations) fmt in
  List.iter
    (fun t ->
      match t.degraded with
      | Some msg -> add "analysis degraded: %s" msg
      | None ->
        ignore
          (fold_accesses t ~init:0 ~f:(fun k av ->
               if not (covered regions av) then
                 add "access #%d %a escapes every mapped region" k Aval.pp av;
               k + 1)))
    ts;
  if not (List.exists (fun t -> t.degraded <> None) ts) then
    List.iter
      (fun (bit, v) ->
        match addr_bit ts ~bit with
        | Logic4.X ->
          add "address bit %d is map-constant %b but not program-constant" bit v
        | b ->
          if Logic4.to_bool b <> Some v then
            add "address bit %d: program drives %a, map says constant %b" bit
              Logic4.pp b v)
      (region_constant_bits ~width ts regions);
  let violations = List.rev !violations in
  { ok = violations = []; violations }

(* --- derived facts for the structural side ------------------------------ *)

let never_written ts (region : Memmap.region) =
  if List.exists (fun t -> t.degraded <> None) ts then []
  else
    let ivals =
      List.concat_map
        (fun t ->
          List.filter_map
            (fun (_, s) ->
              match Aval.bounds s.a_addr with
              | None -> None
              | Some (lo, hi) ->
                let lo = max lo region.Memmap.lo and hi = min hi region.hi in
                if lo > hi then None else Some (lo, hi))
            t.stores)
        ts
      |> List.sort compare
    in
    let rec gaps cursor = function
      | [] ->
        if cursor <= region.hi then [ (cursor, region.hi) ] else []
      | (lo, hi) :: rest ->
        let before = if cursor < lo then [ (cursor, lo - 1) ] else [] in
        before @ gaps (max cursor (hi + 1)) rest
    in
    gaps region.Memmap.lo ivals

let stores_in t (region : Memmap.region) =
  match t.degraded with
  | Some _ -> 0
  | None ->
    List.length
      (List.filter (fun (_, s) -> region_covers region s.a_addr) t.stores)

let unmapped_accesses t regions =
  match t.degraded with
  | Some msg -> [ Printf.sprintf "analysis degraded: %s" msg ]
  | None ->
    let out = ref [] in
    List.iter
      (fun (i, s) ->
        if not (covered regions s.a_addr) then
          out :=
            Format.asprintf "load at 0x%X from %a" (t.origin + i) Aval.pp
              s.a_addr
            :: !out)
      t.loads;
    List.iter
      (fun (i, s) ->
        if not (covered regions s.a_addr) then
          out :=
            Format.asprintf "store at 0x%X to %a" (t.origin + i) Aval.pp
              s.a_addr
            :: !out)
      t.stores;
    List.rev !out

let rdata_bit ts ~bit =
  if ts = [] || List.exists (fun t -> t.degraded <> None) ts then Logic4.X
  else
    (* the bus idles at 0, returns fetched words, and returns load data *)
    List.fold_left
      (fun acc t ->
        let acc =
          Array.to_list t.image
          |> List.mapi (fun i w -> (i, w))
          |> List.fold_left
               (fun acc (i, w) ->
                 if t.pre.(i) = None then acc
                 else bjoin acc (if (w lsr bit) land 1 = 1 then Logic4.L1 else Logic4.L0))
               acc
        in
        List.fold_left
          (fun acc (_, s) -> bjoin acc (Aval.bit s.a_value bit))
          acc t.loads)
      Logic4.L0 ts

let rdata_constant_bits ~width ts =
  List.filter_map
    (fun bit ->
      match rdata_bit ts ~bit with
      | Logic4.L0 -> Some (bit, false)
      | Logic4.L1 -> Some (bit, true)
      | _ -> None)
    (List.init width (fun i -> i))

let netlist_assume ~width ts nl =
  let assume = ref [] in
  List.iter
    (fun (bit, v) ->
      Array.iter
        (fun node -> assume := (node, Logic4.of_bool v) :: !assume)
        (Netlist.nodes_with_role nl (Netlist.Address_reg bit)))
    (constant_addr_bits ~width ts);
  List.iter
    (fun (bit, v) ->
      match Netlist.find nl (Printf.sprintf "bus_rdata[%d]" bit) with
      | Some node -> assume := (node, Logic4.of_bool v) :: !assume
      | None -> ())
    (rdata_constant_bits ~width ts);
  List.rev !assume

let assume_script ~width ts nl =
  let ops = ref [] in
  List.iter
    (fun (bit, v) ->
      Array.iter
        (fun node ->
          match Netlist.name nl node with
          | Some nm -> ops := Script.Tie_flop (nm, Logic4.of_bool v) :: !ops
          | None -> ())
        (Netlist.nodes_with_role nl (Netlist.Address_reg bit)))
    (constant_addr_bits ~width ts);
  List.iter
    (fun (bit, v) ->
      let nm = Printf.sprintf "bus_rdata[%d]" bit in
      if Netlist.find nl nm <> None then
        ops := Script.Tie_input (nm, Logic4.of_bool v) :: !ops)
    (rdata_constant_bits ~width ts);
  List.rev !ops

let software_facts ~label cfg nl ts =
  let width = cfg.Soc.xlen in
  let named = ts in
  let summaries = List.map snd named in
  {
    Olfu_lint.Ctx.sw_label = label;
    sw_width = width;
    sw_const_addr_bits = constant_addr_bits ~width summaries;
    sw_assume = netlist_assume ~width summaries nl;
    sw_dead_code =
      List.filter_map
        (fun (name, t) ->
          match dead_pcs t with [] -> None | pcs -> Some (name, pcs))
        named;
    sw_store_total =
      List.fold_left (fun acc t -> acc + store_sites t) 0 summaries;
    sw_ram_stores =
      List.exists (fun t -> stores_in t cfg.Soc.ram > 0) summaries;
    sw_unmapped =
      List.concat_map
        (fun (name, t) ->
          List.map
            (fun s -> name ^ ": " ^ s)
            (unmapped_accesses t [ cfg.Soc.rom; cfg.Soc.ram ]))
        named;
  }

(* ------------------------------------------------------------------ *)
(* Activation-condition facts for the safe-fault classifier           *)
(* ------------------------------------------------------------------ *)

type activation_facts = {
  af_label : string;
  af_width : int;
  af_addr_bits : (int * bool) list;
  af_rdata_bits : (int * bool) list;
  af_never_written : (int * int) list;
  af_degraded : string list;
}

let activation_facts ~label cfg named =
  let width = cfg.Soc.xlen in
  let ts = List.map snd named in
  {
    af_label = label;
    af_width = width;
    af_addr_bits = constant_addr_bits ~width ts;
    af_rdata_bits = rdata_constant_bits ~width ts;
    af_never_written = never_written ts cfg.Soc.ram;
    af_degraded =
      List.filter_map
        (fun (name, t) ->
          Option.map (fun msg -> name ^ ": " ^ msg) (degraded t))
        named;
  }

let facts_assume facts nl =
  let assume = ref [] in
  List.iter
    (fun (bit, v) ->
      Array.iter
        (fun node -> assume := (node, Logic4.of_bool v) :: !assume)
        (Netlist.nodes_with_role nl (Netlist.Address_reg bit)))
    facts.af_addr_bits;
  List.iter
    (fun (bit, v) ->
      match Netlist.find nl (Printf.sprintf "bus_rdata[%d]" bit) with
      | Some node -> assume := (node, Logic4.of_bool v) :: !assume
      | None -> ())
    facts.af_rdata_bits;
  List.rev !assume
