open Olfu_netlist

type t = {
  nl : Netlist.t;
  cc0 : int array;
  cc1 : int array;
  co : int array;
  co_branch : int array array;
}

let infinity = max_int / 4

let sat_add a b = if a >= infinity || b >= infinity then infinity else a + b

(* A FIFO worklist over node ids: [push] skips a node already waiting,
   [drain f] pops until empty, and [f] may push. *)
let worklist n =
  let q = Queue.create () and queued = Array.make n false in
  let push i =
    if not queued.(i) then begin
      queued.(i) <- true;
      Queue.add i q
    end
  in
  let drain f =
    while not (Queue.is_empty q) do
      let i = Queue.pop q in
      queued.(i) <- false;
      f i
    done
  in
  (push, drain)

let least cc fi = Array.fold_left (fun m d -> Int.min m cc.(d)) infinity fi
let total cc fi = Array.fold_left (fun s d -> sat_add s cc.(d)) 0 fi

(* Cost of odd (or even) parity over the fanins. *)
let parity cc0 cc1 fi ~odd =
  let e = ref 0 and o = ref infinity in
  for k = 0 to Array.length fi - 1 do
    let c0 = cc0.(fi.(k)) and c1 = cc1.(fi.(k)) in
    let e' = Int.min (sat_add !e c0) (sat_add !o c1) in
    o := Int.min (sat_add !e c1) (sat_add !o c0);
    e := e'
  done;
  if odd then !o else !e

(* Every cost below is a monotone function of the fanins' costs, so the
   measures are the greatest fixpoint of these equations.  A worklist
   reaches it from [infinity] by re-evaluating a node only when a fanin
   (for [cc]) or a fanout sink (for [co]) lowered a value.  Each update
   lowers a non-negative int, and an optimal derivation never repeats a
   node, so at most [n] passes over the queue are needed. *)
let controllability nl =
  let n = Netlist.length nl in
  let cc0 = Array.make n infinity and cc1 = Array.make n infinity in
  (* [cc] of a mux's output: the select at 0 and [a] at the value, or
     the select at 1 and [b] at it *)
  let mux cc ~sel a b =
    Int.min (sat_add cc0.(sel) cc.(a)) (sat_add cc1.(sel) cc.(b))
  in
  let eval i =
    let f = Netlist.fanin nl i in
    match Netlist.kind nl i with
    | Cell.Input -> (1, 1)
    | Cell.Tie0 -> (0, infinity)
    | Cell.Tie1 -> (infinity, 0)
    | Cell.Tiex -> (infinity, infinity)
    | Cell.Output | Cell.Buf | Cell.Dff ->
      (sat_add cc0.(f.(0)) 1, sat_add cc1.(f.(0)) 1)
    | Cell.Not -> (sat_add cc1.(f.(0)) 1, sat_add cc0.(f.(0)) 1)
    | Cell.And -> (sat_add (least cc0 f) 1, sat_add (total cc1 f) 1)
    | Cell.Nand -> (sat_add (total cc1 f) 1, sat_add (least cc0 f) 1)
    | Cell.Or -> (sat_add (total cc0 f) 1, sat_add (least cc1 f) 1)
    | Cell.Nor -> (sat_add (least cc1 f) 1, sat_add (total cc0 f) 1)
    | Cell.Xor ->
      ( sat_add (parity cc0 cc1 f ~odd:false) 1,
        sat_add (parity cc0 cc1 f ~odd:true) 1 )
    | Cell.Xnor ->
      ( sat_add (parity cc0 cc1 f ~odd:true) 1,
        sat_add (parity cc0 cc1 f ~odd:false) 1 )
    | Cell.Mux2 ->
      ( sat_add (mux cc0 ~sel:f.(0) f.(1) f.(2)) 1,
        sat_add (mux cc1 ~sel:f.(0) f.(1) f.(2)) 1 )
    | Cell.Dffr ->
      (sat_add (Int.min cc0.(f.(0)) cc0.(f.(1))) 1, sat_add cc1.(f.(0)) 1)
    | Cell.Sdff ->
      (* Mission mode: the D path; the scan path is costed like a mux. *)
      ( sat_add (mux cc0 ~sel:f.(2) f.(0) f.(1)) 1,
        sat_add (mux cc1 ~sel:f.(2) f.(0) f.(1)) 1 )
    | Cell.Sdffr ->
      ( sat_add (Int.min cc0.(f.(3)) (mux cc0 ~sel:f.(2) f.(0) f.(1))) 1,
        sat_add (mux cc1 ~sel:f.(2) f.(0) f.(1)) 1 )
  in
  let push, drain = worklist n in
  for i = 0 to n - 1 do
    match Netlist.kind nl i with
    | Cell.Input | Cell.Tie0 | Cell.Tie1 | Cell.Tiex -> push i
    | _ -> ()
  done;
  Array.iter push (Netlist.topo nl);
  Array.iter push (Netlist.seq_nodes nl);
  drain (fun i ->
      let v0, v1 = eval i in
      if v0 < cc0.(i) || v1 < cc1.(i) then begin
        cc0.(i) <- Int.min v0 cc0.(i);
        cc1.(i) <- Int.min v1 cc1.(i);
        Array.iter (fun (sink, _) -> push sink) (Netlist.fanout nl i)
      end);
  (cc0, cc1)

let observability nl (cc0, cc1) =
  let n = Netlist.length nl in
  let co = Array.make n infinity in
  let co_branch =
    Array.init n (fun i ->
        Array.make (Array.length (Netlist.fanin nl i)) infinity)
  in
  let side_cost f pin cc =
    let total = ref 0 in
    for p = 0 to Array.length f - 1 do
      if p <> pin then total := sat_add !total (cc f.(p))
    done;
    !total
  in
  let either d = Int.min cc0.(d) cc1.(d) in
  let c0 d = cc0.(d) and c1 d = cc1.(d) in
  let branch_cost i pin =
    let f = Netlist.fanin nl i in
    let out = co.(i) in
    match Netlist.kind nl i with
    | Cell.Output -> 0
    | Cell.Buf | Cell.Not | Cell.Dff -> sat_add out 1
    | Cell.And | Cell.Nand -> sat_add out (sat_add (side_cost f pin c1) 1)
    | Cell.Or | Cell.Nor -> sat_add out (sat_add (side_cost f pin c0) 1)
    | Cell.Xor | Cell.Xnor -> sat_add out (sat_add (side_cost f pin either) 1)
    | Cell.Mux2 ->
      let sel = f.(0) and a = f.(1) and b = f.(2) in
      let c =
        match pin with
        | 0 ->
          (* Observing the select needs the data inputs to differ. *)
          Int.min (sat_add cc0.(a) cc1.(b)) (sat_add cc1.(a) cc0.(b))
        | 1 -> cc0.(sel)
        | _ -> cc1.(sel)
      in
      sat_add out (sat_add c 1)
    | Cell.Dffr -> (
      match pin with
      | 0 -> sat_add out (sat_add cc1.(f.(1)) 1)
      | _ -> sat_add out (sat_add cc1.(f.(0)) 1))
    | Cell.Sdff | Cell.Sdffr -> (
      match pin with
      | 0 -> sat_add out (sat_add cc0.(f.(2)) 1)
      | 1 -> sat_add out (sat_add cc1.(f.(2)) 1)
      | 2 ->
        sat_add out
          (sat_add
             (Int.min (sat_add cc0.(f.(0)) cc1.(f.(1)))
                (sat_add cc1.(f.(0)) cc0.(f.(1))))
             1)
      | _ -> sat_add out (sat_add cc1.(f.(0)) 1))
    | Cell.Input | Cell.Tie0 | Cell.Tie1 | Cell.Tiex -> assert false
  in
  let push, drain = worklist n in
  (* Output markers are the observation roots. *)
  Array.iter
    (fun o ->
      co.(o) <- 0;
      push o)
    (Netlist.outputs nl);
  let topo = Netlist.topo nl in
  for k = Array.length topo - 1 downto 0 do
    push topo.(k)
  done;
  drain (fun i ->
      Array.iteri
        (fun pin drv ->
          let c = branch_cost i pin in
          if c < co_branch.(i).(pin) then co_branch.(i).(pin) <- c;
          if c < co.(drv) then begin
            co.(drv) <- c;
            push drv
          end)
        (Netlist.fanin nl i));
  (co, co_branch)

let run nl =
  let cc0, cc1 = controllability nl in
  let co, co_branch = observability nl (cc0, cc1) in
  { nl; cc0; cc1; co; co_branch }

let cc0 t i = t.cc0.(i)
let cc1 t i = t.cc1.(i)
let co t i = t.co.(i)
let co_branch t node pin = t.co_branch.(node).(pin)

let hardest t ~n =
  let scored = ref [] in
  for i = 0 to Netlist.length t.nl - 1 do
    let s = sat_add (sat_add t.cc0.(i) t.cc1.(i)) t.co.(i) in
    if s < infinity then scored := (i, s) :: !scored
  done;
  List.sort (fun (_, a) (_, b) -> Int.compare b a) !scored
  |> List.filteri (fun k _ -> k < n)
