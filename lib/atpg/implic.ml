open Olfu_logic
open Olfu_netlist

type stats = {
  literals : int;
  direct_edges : int;
  learned_edges : int;
  impossible_learned : int;
  learn_depth : int;
  learn_budget : int;
  learn_spent : int;
  build_seconds : float;
}

type t = {
  nl : Netlist.t;
  consts : Logic4.t array;
  mutable succ : int array array;  (* per literal; immutable after build *)
  extra : int list array;  (* learning-time edges; emptied after merge *)
  imposs : Bytes.t;  (* '\000' unknown, '\001' possible, '\002' impossible *)
  mutable stats : stats;
}

let lit net v = (2 * net) lor (if v then 1 else 0)
let lit_net l = l lsr 1
let lit_value l = l land 1 = 1
let lit_not l = l lxor 1

let netlist t = t.nl
let stats t = t.stats

(* ---------------------------------------------------------------- *)
(* Query scratch: generation-stamped marks plus the BFS worklist     *)
(* (the visited list doubles as the queue — drain order is insertion *)
(* order).                                                           *)
(* ---------------------------------------------------------------- *)

type scratch = {
  mark : int array;
  mutable gen : int;
  mutable vis : int array;
  mutable vislen : int;
  mutable qhead : int;
  mutable contra : bool;
  mutable derived : int;
  mutable budget : int;
}

module Scratch = struct
  type t = scratch

  let create db =
    {
      mark = Array.make (2 * Netlist.length db.nl) 0;
      gen = 0;
      vis = Array.make 256 0;
      vislen = 0;
      qhead = 0;
      contra = false;
      derived = 0;
      budget = 0;
    }
end

let vis_push s l =
  if s.vislen = Array.length s.vis then begin
    let bigger = Array.make (2 * s.vislen) 0 in
    Array.blit s.vis 0 bigger 0 s.vislen;
    s.vis <- bigger
  end;
  s.vis.(s.vislen) <- l;
  s.vislen <- s.vislen + 1

(* Mark one literal as implied.  A contradiction is both values of one
   net, or a value against a binary ternary constant; a single required
   value on an unknown (even uncontrollable) net is never by itself a
   conflict — the net still carries some binary value in a real frame.
   Every marked literal lands in [vis] (even a contradicting one), so
   [vis] is the exact undo log {!rollback} needs; [drain] stops at a
   contradiction, so a contra literal is never expanded. *)
let push db s ~seed l =
  if s.mark.(l) <> s.gen && not s.contra then begin
    if s.budget > 0 then begin
      s.budget <- s.budget - 1;
      s.mark.(l) <- s.gen;
      vis_push s l;
      if s.mark.(lit_not l) = s.gen then s.contra <- true
      else
        match db.consts.(lit_net l) with
        | Logic4.L0 -> if lit_value l then s.contra <- true
        | Logic4.L1 -> if not (lit_value l) then s.contra <- true
        | Logic4.X | Logic4.Z ->
          if not seed then s.derived <- s.derived + 1
    end
  end

let drain db s =
  while (not s.contra) && s.qhead < s.vislen do
    let l = s.vis.(s.qhead) in
    s.qhead <- s.qhead + 1;
    let succ = db.succ.(l) in
    for k = 0 to Array.length succ - 1 do
      push db s ~seed:false succ.(k)
    done;
    match db.extra.(l) with
    | [] -> ()
    | ms -> List.iter (fun m -> push db s ~seed:false m) ms
  done

let default_query_budget = 4096

let assume ?(budget = default_query_budget) db s lits =
  s.gen <- s.gen + 1;
  s.contra <- false;
  s.derived <- 0;
  s.vislen <- 0;
  s.qhead <- 0;
  s.budget <- budget;
  List.iter (push db s ~seed:true) lits;
  drain db s;
  not s.contra

let extend db s lits =
  List.iter (push db s ~seed:true) lits;
  drain db s;
  not s.contra

let set_budget s b = s.budget <- max 0 b

(* A drained closure is complete up to its budget: everything derivable
   from the pre-checkpoint seeds is already in [vis.(0 .. vislen)], so
   truncating [vis] and unmarking the suffix restores the closure state
   exactly — the basis of per-stem closure reuse in [Untestable]. *)
type checkpoint = {
  c_gen : int;
  c_vislen : int;
  c_qhead : int;
  c_derived : int;
  c_contra : bool;
  c_budget : int;
}

let checkpoint s =
  {
    c_gen = s.gen;
    c_vislen = s.vislen;
    c_qhead = s.qhead;
    c_derived = s.derived;
    c_contra = s.contra;
    c_budget = s.budget;
  }

let rollback s ck =
  if ck.c_gen <> s.gen then invalid_arg "Implic.rollback: stale checkpoint";
  for k = ck.c_vislen to s.vislen - 1 do
    (* generations start at 1 (bumped by every [assume]), so 0 never
       matches the current one *)
    s.mark.(s.vis.(k)) <- 0
  done;
  s.vislen <- ck.c_vislen;
  s.qhead <- min ck.c_qhead ck.c_vislen;
  s.derived <- ck.c_derived;
  s.contra <- ck.c_contra;
  s.budget <- ck.c_budget

let implied s net =
  if s.mark.(lit net false) = s.gen then Logic4.L0
  else if s.mark.(lit net true) = s.gen then Logic4.L1
  else Logic4.X

(* ---------------------------------------------------------------- *)
(* Direct implications from gate semantics                           *)
(* ---------------------------------------------------------------- *)

let build_direct ?(extra_edges = []) nl consts =
  let n = Netlist.length nl in
  let pre : int list array = Array.make (2 * n) [] in
  let count = ref 0 in
  let add a b =
    pre.(a) <- b :: pre.(a);
    incr count
  in
  (* every implication together with its contrapositive, so the closure
     is closed under contraposition *)
  let imp2 a b =
    add a b;
    add (lit_not b) (lit_not a)
  in
  let equiv x y =
    imp2 (lit x false) (lit y false);
    imp2 (lit x true) (lit y true)
  in
  let inv_equiv x y =
    imp2 (lit x false) (lit y true);
    imp2 (lit x true) (lit y false)
  in
  let binary_is d v =
    Logic4.is_binary consts.(d)
    && Logic4.equal consts.(d) (if v then Logic4.L1 else Logic4.L0)
  in
  (* controlled gates: controlling input value [cin] forces output [cout] *)
  let controlled o fanin ~cin ~cout =
    let neutral = not cin in
    let nonneutral = ref 0 and last = ref (-1) in
    Array.iteri
      (fun idx d ->
        if not (binary_is d neutral) then begin
          incr nonneutral;
          last := idx
        end)
      fanin;
    Array.iter (fun d -> imp2 (lit d cin) (lit o cout)) fanin;
    (* all side inputs tied neutral: the gate is transparent in the free
       input, so the reverse direction holds too *)
    if !nonneutral = 1 then begin
      let d = fanin.(!last) in
      if not (Logic4.is_binary consts.(d)) then
        imp2 (lit d neutral) (lit o (not cout))
    end
  in
  Netlist.iter_nodes
    (fun o nd ->
      let fanin = nd.Netlist.fanin in
      match nd.Netlist.kind with
      | Cell.Buf | Cell.Output -> equiv fanin.(0) o
      | Cell.Not -> inv_equiv fanin.(0) o
      | Cell.And -> controlled o fanin ~cin:false ~cout:false
      | Cell.Nand -> controlled o fanin ~cin:false ~cout:true
      | Cell.Or -> controlled o fanin ~cin:true ~cout:true
      | Cell.Nor -> controlled o fanin ~cin:true ~cout:false
      | Cell.Xor | Cell.Xnor ->
        (* transparent when all but one input is a binary constant *)
        let unknowns = ref 0 and uidx = ref (-1) and parity = ref false in
        Array.iteri
          (fun idx d ->
            match consts.(d) with
            | Logic4.L0 -> ()
            | Logic4.L1 -> parity := not !parity
            | Logic4.X | Logic4.Z ->
              incr unknowns;
              uidx := idx)
          fanin;
        if !unknowns = 1 then begin
          let d = fanin.(!uidx) in
          let inv =
            match nd.Netlist.kind with
            | Cell.Xnor -> not !parity
            | _ -> !parity
          in
          if inv then inv_equiv d o else equiv d o
        end
      | Cell.Mux2 -> (
        let s_ = fanin.(0) and a = fanin.(1) and b = fanin.(2) in
        match consts.(s_) with
        | Logic4.L0 -> equiv a o
        | Logic4.L1 -> equiv b o
        | Logic4.X | Logic4.Z ->
          (match consts.(a) with
          | Logic4.L0 ->
            imp2 (lit o true) (lit s_ true);
            imp2 (lit o true) (lit b true)
          | Logic4.L1 ->
            imp2 (lit o false) (lit s_ true);
            imp2 (lit o false) (lit b false)
          | _ -> ());
          (match consts.(b) with
          | Logic4.L0 ->
            imp2 (lit o true) (lit s_ false);
            imp2 (lit o true) (lit a true)
          | Logic4.L1 ->
            imp2 (lit o false) (lit s_ false);
            imp2 (lit o false) (lit a false)
          | _ -> ()))
      | Cell.Input | Cell.Tie0 | Cell.Tie1 | Cell.Tiex -> ()
      | Cell.Dff | Cell.Dffr | Cell.Sdff | Cell.Sdffr ->
        (* frame cut: no combinational implication across state *)
        ())
    nl;
  (* caller-supplied single-literal facts (proved state invariants):
     routed through [imp2] so contraposition closure is preserved *)
  List.iter
    (fun (a, b) ->
      if a >= 0 && a < 2 * n && b >= 0 && b < 2 * n && a <> b then imp2 a b)
    extra_edges;
  (Array.map (fun l -> Array.of_list l) pre, !count)

(* ---------------------------------------------------------------- *)
(* Bounded recursive learning (SOCRATES-style indirect implications)  *)
(* ---------------------------------------------------------------- *)

(* If the current closure forces gate [o] to its controlled output value
   without justifying it, return the candidate justification literals
   (None: justified, or not a learnable shape; Some []: every input is
   provably non-controlling — a contradiction). *)
let justification db s l =
  let o = lit_net l in
  let v = lit_value l in
  let shape =
    match Netlist.kind db.nl o with
    | Cell.And -> Some (false, false)
    | Cell.Nand -> Some (false, true)
    | Cell.Or -> Some (true, true)
    | Cell.Nor -> Some (true, false)
    | _ -> None
  in
  match shape with
  | None -> None
  | Some (cin, cout) ->
    if v <> cout then None
    else begin
      let fanin = Netlist.fanin db.nl o in
      if Array.length fanin < 2 then None
      else begin
        let justified = ref false in
        let cands = ref [] in
        Array.iter
          (fun d ->
            if not !justified then begin
              let jl = lit d cin in
              let cd = db.consts.(d) in
              if
                s.mark.(jl) = s.gen
                || (Logic4.is_binary cd
                   && Logic4.equal cd (if cin then Logic4.L1 else Logic4.L0))
              then justified := true
              else if s.mark.(lit_not jl) = s.gen || Logic4.is_binary cd then
                ()  (* provably non-controlling: cannot justify *)
              else if not (List.mem jl !cands) then cands := jl :: !cands
            end)
          fanin;
        if !justified then None else Some (List.rev !cands)
      end
    end

let max_splits_per_closure = 16
let branch_budget = 2048

let sweep_learning db ~depth ~budget =
  let budget_ref = ref budget in
  let learned = ref 0 and imposs_learned = ref 0 in
  let seen = Hashtbl.create 4096 in
  let n2 = 2 * Netlist.length db.nl in
  let learn_edge a b =
    let key = (a * n2) + b in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      db.extra.(a) <- b :: db.extra.(a);
      db.extra.(lit_not b) <- lit_not a :: db.extra.(lit_not b);
      learned := !learned + 2
    end
  in
  let scr = Array.init (depth + 1) (fun _ -> Scratch.create db) in
  (* [close level seeds top]: closure of [seeds] in scr.(level), with one
     round of case splits when a deeper level remains.  [top] is Some l0
     only at level 0, where learned implications become edges. *)
  let rec close level seeds top =
    let s = scr.(level) in
    let ok = assume ~budget:branch_budget db s seeds in
    budget_ref := !budget_ref - s.vislen;
    if not ok then false
    else begin
      if level < depth then begin
        let tried = ref 0 and k = ref 0 in
        while
          !k < s.vislen
          && !tried < max_splits_per_closure
          && (not s.contra)
          && !budget_ref > 0
        do
          let l = s.vis.(!k) in
          incr k;
          (match justification db s l with
          | None -> ()
          | Some [] -> s.contra <- true
          | Some [ j ] ->
            (* unit justification: forced *)
            incr tried;
            (match top with Some l0 -> learn_edge l0 j | None -> ());
            ignore (extend db s [ j ] : bool)
          | Some cands ->
            incr tried;
            let common = ref None in
            let alive = ref 0 and complete = ref true in
            List.iter
              (fun j ->
                if !budget_ref <= 0 then complete := false
                else begin
                  let okb = close (level + 1) (j :: seeds) None in
                  let sb = scr.(level + 1) in
                  if okb then begin
                    incr alive;
                    match !common with
                    | None -> common := Some (Array.sub sb.vis 0 sb.vislen)
                    | Some a ->
                      common :=
                        Some
                          (Array.of_list
                             (List.filter
                                (fun m -> sb.mark.(m) = sb.gen)
                                (Array.to_list a)))
                  end
                end)
              cands;
            if !complete then begin
              if !alive = 0 then s.contra <- true
              else
                match !common with
                | None -> ()
                | Some a ->
                  Array.iter
                    (fun m ->
                      if s.mark.(m) <> s.gen then begin
                        (match top with
                        | Some l0 -> learn_edge l0 m
                        | None -> ());
                        push db s ~seed:false m
                      end)
                    a;
                  drain db s
            end);
          ()
        done
      end;
      not s.contra
    end
  in
  let l = ref 0 in
  while !l < n2 && !budget_ref > 0 do
    let l0 = !l in
    if not (Logic4.is_binary db.consts.(lit_net l0)) then
      if not (close 0 [ l0 ] (Some l0)) then
        if Bytes.get db.imposs l0 = '\000' then begin
          Bytes.set db.imposs l0 '\002';
          incr imposs_learned
        end;
    l := l0 + 1
  done;
  (!learned, !imposs_learned, budget - !budget_ref)

let default_learn_depth = 2
let default_learn_budget = 200_000

let build ?(learn_depth = default_learn_depth)
    ?(learn_budget = default_learn_budget) ?(extra_edges = []) ~consts nl =
  let t0 = Unix.gettimeofday () in
  let n = Netlist.length nl in
  let succ, direct = build_direct ~extra_edges nl consts in
  let db =
    {
      nl;
      consts;
      succ;
      extra = Array.make (2 * n) [];
      imposs = Bytes.make (2 * n) '\000';
      stats =
        {
          literals = 2 * n;
          direct_edges = direct;
          learned_edges = 0;
          impossible_learned = 0;
          learn_depth;
          learn_budget;
          learn_spent = 0;
          build_seconds = 0.;
        };
    }
  in
  let learned, imposs_learned, spent =
    if learn_depth > 0 && learn_budget > 0 then
      sweep_learning db ~depth:learn_depth ~budget:learn_budget
    else (0, 0, 0)
  in
  (* merge the learned edges into the adjacency arrays *)
  if learned > 0 then begin
    db.succ <-
      Array.mapi
        (fun l a ->
          match db.extra.(l) with
          | [] -> a
          | ms -> Array.append a (Array.of_list ms))
        db.succ;
    Array.fill db.extra 0 (2 * n) []
  end;
  db.stats <-
    {
      db.stats with
      learned_edges = learned;
      impossible_learned = imposs_learned;
      learn_spent = spent;
      build_seconds = Unix.gettimeofday () -. t0;
    };
  db

let impossible db s net v =
  let l = lit net v in
  match Bytes.get db.imposs l with
  | '\002' -> true
  | '\001' -> false
  | _ ->
    let ok = assume db s [ l ] in
    (* pure in (db, l) under the fixed default budget, so concurrent
       writes are idempotent *)
    Bytes.set db.imposs l (if ok then '\001' else '\002');
    not ok

let conflict_nets ?(limit = max_int) db s =
  let acc = ref [] and count = ref 0 in
  let n = Netlist.length db.nl in
  let i = ref 0 in
  while !i < n && !count < limit do
    let net = !i in
    if not (Logic4.is_binary db.consts.(net)) then begin
      if impossible db s net false then begin
        acc := (net, false) :: !acc;
        incr count
      end;
      if !count < limit && impossible db s net true then begin
        acc := (net, true) :: !acc;
        incr count
      end
    end;
    incr i
  done;
  List.rev !acc
