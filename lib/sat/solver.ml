(* CDCL with two-watched literals, 1-UIP learning, VSIDS and geometric
   restarts — the MiniSat architecture reduced to what the netlist miters
   need. *)

(* Literal encoding: 2v = +v, 2v+1 = -v. *)
let lit_of_int l = if l > 0 then 2 * l else (2 * -l) + 1
let neg l = l lxor 1
let var_of l = l lsr 1
let sign_of l = l land 1 = 1 (* true = negative *)

type clause = { lits : int array; mutable act : float }

type t = {
  mutable nvars : int;
  mutable clauses : clause array;  (* arena *)
  mutable nclauses : int;
  mutable watches : int list array;  (* per literal: clause indices *)
  mutable assign : int array;  (* per var: -1 undef, 0 false, 1 true *)
  mutable level : int array;
  mutable reason : int array;  (* clause index, -1 = decision *)
  mutable activity : float array;
  mutable phase : bool array;
  mutable trail : int array;
  mutable trail_size : int;
  mutable trail_lim : int array;  (* stack of trail sizes per level *)
  mutable trail_lim_size : int;
  mutable qhead : int;
  mutable var_inc : float;
  mutable trivially_unsat : bool;
  mutable root_units : int list;  (* level-0 facts awaiting propagation *)
}

let create () =
  {
    nvars = 0;
    clauses = Array.make 16 { lits = [||]; act = 0. };
    nclauses = 0;
    watches = Array.make 16 [];
    assign = Array.make 8 (-1);
    level = Array.make 8 0;
    reason = Array.make 8 (-1);
    activity = Array.make 8 0.;
    phase = Array.make 8 false;
    trail = Array.make 8 0;
    trail_size = 0;
    trail_lim = Array.make 8 0;
    trail_lim_size = 0;
    qhead = 0;
    var_inc = 1.;
    trivially_unsat = false;
    root_units = [];
  }

let grow_int a n fill =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let grow_float a n =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) 0. in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let grow_bool a n =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) false in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let grow_lists a n =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) [] in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let new_var t =
  t.nvars <- t.nvars + 1;
  let v = t.nvars in
  let n = v + 1 in
  t.assign <- grow_int t.assign n (-1);
  t.level <- grow_int t.level n 0;
  t.reason <- grow_int t.reason n (-1);
  t.activity <- grow_float t.activity n;
  t.phase <- grow_bool t.phase n;
  t.trail <- grow_int t.trail n 0;
  t.trail_lim <- grow_int t.trail_lim n 0;
  t.watches <- grow_lists t.watches (2 * n + 2);
  t.assign.(v) <- -1;
  t.reason.(v) <- -1;
  v

(* value of a literal: -1 undef, 0 false, 1 true *)
let lit_value t l =
  let a = t.assign.(var_of l) in
  if a < 0 then -1 else if sign_of l then 1 - a else a

let enqueue t l reason =
  let v = var_of l in
  t.assign.(v) <- (if sign_of l then 0 else 1);
  t.level.(v) <- t.trail_lim_size;
  t.reason.(v) <- reason;
  t.phase.(v) <- not (sign_of l);
  t.trail.(t.trail_size) <- l;
  t.trail_size <- t.trail_size + 1

let add_clause_arena t c =
  if t.nclauses = Array.length t.clauses then begin
    let b = Array.make (2 * t.nclauses) c in
    Array.blit t.clauses 0 b 0 t.nclauses;
    t.clauses <- b
  end;
  t.clauses.(t.nclauses) <- c;
  t.nclauses <- t.nclauses + 1;
  t.nclauses - 1

let watch t l ci = t.watches.(l) <- ci :: t.watches.(l)

let add_clause t ints =
  List.iter
    (fun l ->
      let v = abs l in
      if l = 0 || v > t.nvars then
        invalid_arg "Solver.add_clause: literal out of range")
    ints;
  (* dedupe, drop tautologies *)
  let lits = List.sort_uniq Int.compare (List.map lit_of_int ints) in
  let tautology =
    List.exists (fun l -> List.exists (Int.equal (neg l)) lits) lits
  in
  if not tautology then
    match lits with
    | [] -> t.trivially_unsat <- true
    | [ l ] -> t.root_units <- l :: t.root_units
    | l0 :: l1 :: _ ->
      let c = { lits = Array.of_list lits; act = 0. } in
      let ci = add_clause_arena t c in
      watch t (neg l0) ci;
      watch t (neg l1) ci

(* Two-watched-literal propagation; returns the conflicting clause. *)
let propagate t =
  let conflict = ref (-1) in
  while !conflict < 0 && t.qhead < t.trail_size do
    let l = t.trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    (* clauses watching [neg l] are registered under key [l] *)
    let false_lit = neg l in
    let old = t.watches.(l) in
    t.watches.(l) <- [];
    let rec go = function
      | [] -> ()
      | ci :: rest ->
        if !conflict >= 0 then
          (* conflict found: keep the remaining watches untouched *)
          t.watches.(l) <- ci :: (rest @ t.watches.(l))
        else begin
          let c = t.clauses.(ci).lits in
          (* ensure the false literal is at position 1 *)
          if c.(0) = false_lit then begin
            c.(0) <- c.(1);
            c.(1) <- false_lit
          end;
          if lit_value t c.(0) = 1 then begin
            (* satisfied: keep watching *)
            t.watches.(l) <- ci :: t.watches.(l)
          end
          else begin
            (* look for a new watch *)
            let moved = ref false in
            (try
               for k = 2 to Array.length c - 1 do
                 if lit_value t c.(k) <> 0 then begin
                   c.(1) <- c.(k);
                   c.(k) <- false_lit;
                   watch t (neg c.(1)) ci;
                   moved := true;
                   raise Exit
                 end
               done
             with Exit -> ());
            if not !moved then begin
              t.watches.(l) <- ci :: t.watches.(l);
              match lit_value t c.(0) with
              | 0 -> conflict := ci
              | -1 -> enqueue t c.(0) ci
              | _ -> ()
            end
          end;
          go rest
        end
    in
    go old
  done;
  !conflict

let bump t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > 1e100 then begin
    for i = 1 to t.nvars do
      t.activity.(i) <- t.activity.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end

let decay t = t.var_inc <- t.var_inc /. 0.95

(* First-UIP conflict analysis; returns (learnt lits with UIP first,
   backjump level). *)
let analyze t confl =
  let seen = Array.make (t.nvars + 1) false in
  let learnt = ref [] in
  let counter = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let idx = ref (t.trail_size - 1) in
  let continue = ref true in
  while !continue do
    let c = t.clauses.(!confl).lits in
    Array.iter
      (fun q ->
        if q <> !p then begin
          let v = var_of q in
          if (not seen.(v)) && t.level.(v) > 0 then begin
            seen.(v) <- true;
            bump t v;
            if t.level.(v) >= t.trail_lim_size then incr counter
            else learnt := q :: !learnt
          end
        end)
      c;
    (* find the next seen literal on the trail *)
    while not seen.(var_of t.trail.(!idx)) do
      decr idx
    done;
    p := t.trail.(!idx);
    decr idx;
    seen.(var_of !p) <- false;
    decr counter;
    if !counter = 0 then continue := false
    else confl := t.reason.(var_of !p)
  done;
  let learnt = neg !p :: !learnt in
  let bj =
    List.fold_left
      (fun m q -> if q <> neg !p then max m t.level.(var_of q) else m)
      0 learnt
  in
  (learnt, bj)

let cancel_until t lvl =
  if t.trail_lim_size > lvl then begin
    let bound = t.trail_lim.(lvl) in
    for i = t.trail_size - 1 downto bound do
      let v = var_of t.trail.(i) in
      t.assign.(v) <- -1;
      t.reason.(v) <- -1
    done;
    t.trail_size <- bound;
    t.qhead <- bound;
    t.trail_lim_size <- lvl
  end

let new_level t =
  t.trail_lim.(t.trail_lim_size) <- t.trail_size;
  t.trail_lim_size <- t.trail_lim_size + 1

let pick_branch t =
  let best = ref (-1) in
  let best_act = ref neg_infinity in
  for v = 1 to t.nvars do
    if t.assign.(v) < 0 && t.activity.(v) > !best_act then begin
      best := v;
      best_act := t.activity.(v)
    end
  done;
  if !best < 0 then None
  else Some (if t.phase.(!best) then 2 * !best else (2 * !best) + 1)

type result = Sat of (int -> bool) | Unsat | Unknown

let solve ?(assumptions = []) ?(conflict_limit = max_int) t =
  if t.trivially_unsat then Unsat
  else begin
    cancel_until t 0;
    (* flush root units *)
    let ok = ref true in
    List.iter
      (fun l ->
        match lit_value t l with
        | 1 -> ()
        | 0 -> ok := false
        | _ -> enqueue t l (-1))
      t.root_units;
    t.root_units <- [];
    if (not !ok) || propagate t >= 0 then begin
      t.trivially_unsat <- true;
      Unsat
    end
    else begin
      let n_assumed = List.length assumptions in
      let conflicts = ref 0 in
      let restart_at = ref 100 in
      let result = ref None in
      (* place assumptions, each on its own level *)
      let rec assume = function
        | [] -> true
        | a :: rest -> (
          let l = lit_of_int a in
          match lit_value t l with
          | 1 -> new_level t; assume rest
          | 0 -> false
          | _ ->
            new_level t;
            enqueue t l (-1);
            if propagate t >= 0 then false else assume rest)
      in
      if not (assume assumptions) then begin
        cancel_until t 0;
        Unsat
      end
      else begin
        while !result = None do
          let confl = propagate t in
          if confl >= 0 then begin
            incr conflicts;
            if t.trail_lim_size <= n_assumed then begin
              result := Some Unsat
            end
            else if !conflicts > conflict_limit then result := Some Unknown
            else begin
              let learnt, bj = analyze t confl in
              let bj = max bj n_assumed in
              cancel_until t bj;
              (match learnt with
              | [ l ] -> enqueue t l (-1)
              | l0 :: _ :: _ ->
                let c = { lits = Array.of_list learnt; act = 0. } in
                (* UIP first; second watch on a max-level literal *)
                let lits = c.lits in
                let bestk = ref 1 in
                for k = 2 to Array.length lits - 1 do
                  if t.level.(var_of lits.(k)) > t.level.(var_of lits.(!bestk))
                  then bestk := k
                done;
                let tmp = lits.(1) in
                lits.(1) <- lits.(!bestk);
                lits.(!bestk) <- tmp;
                let ci = add_clause_arena t c in
                watch t (neg lits.(0)) ci;
                watch t (neg lits.(1)) ci;
                enqueue t l0 ci
              | [] -> result := Some Unsat);
              decay t;
              if !conflicts >= !restart_at && !result = None then begin
                restart_at := !restart_at + (!restart_at / 2) + 50;
                cancel_until t n_assumed
              end
            end
          end
          else begin
            match pick_branch t with
            | None ->
              (* full model *)
              let model = Array.sub t.assign 0 (t.nvars + 1) in
              result :=
                Some
                  (Sat
                     (fun v ->
                       if v < 1 || v > Array.length model - 1 then
                         invalid_arg "Solver model: variable out of range"
                       else model.(v) = 1))
            | Some l ->
              new_level t;
              enqueue t l (-1)
          end
        done;
        let r = match !result with Some r -> r | None -> assert false in
        cancel_until t 0;
        r
      end
    end
  end
