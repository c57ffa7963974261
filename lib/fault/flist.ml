open Olfu_netlist

module Index = Hashtbl.Make (Fault)

type t = {
  nl : Netlist.t;
  faults : Fault.t array;
  status : Status.t array;
  index : int Index.t;
}

(* [faults] is owned by the list from here on *)
let of_faults nl faults =
  let index = Index.create (2 * Array.length faults) in
  Array.iteri
    (fun i f ->
      Index.replace index f i;
      if Index.length index <> i + 1 then
        invalid_arg
          (Printf.sprintf "Flist.create: duplicate fault %s"
             (Fault.to_string nl f)))
    faults;
  {
    nl;
    faults;
    status = Array.make (Array.length faults) Status.Not_analyzed;
    index;
  }

let create nl faults = of_faults nl (Array.copy faults)
let full ?include_ties nl = of_faults nl (Fault.universe ?include_ties nl)
let copy t = { t with status = Array.copy t.status }

let netlist t = t.nl
let size t = Array.length t.faults
let fault t i = t.faults.(i)
let status t i = t.status.(i)
let set_status t i s = t.status.(i) <- s

let classify_if t st ~keep p =
  let changed = ref 0 in
  Array.iteri
    (fun i f ->
      if keep t.status.(i) && p f then begin
        t.status.(i) <- st;
        incr changed
      end)
    t.faults;
  !changed

let find t f = Index.find_opt t.index f
let mem t f = Index.mem t.index f

let iteri f t = Array.iteri (fun i flt -> f i flt t.status.(i)) t.faults

let count t ~f =
  Array.fold_left (fun acc s -> if f s then acc + 1 else acc) 0 t.status

let count_status t s = count t ~f:(Status.equal s)

(* Counts per status code, descending. *)
let by_class t =
  let tbl = Hashtbl.create 11 in
  Array.iter
    (fun s ->
      let c = Status.code s in
      Hashtbl.replace tbl c
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl c)))
    t.status;
  Hashtbl.fold (fun c n acc -> (c, n) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> Int.compare b a)

let indices t ~f =
  let acc = ref [] in
  for i = Array.length t.status - 1 downto 0 do
    if f t.status.(i) then acc := i :: !acc
  done;
  !acc

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

let fault_coverage t = ratio (count_status t Status.Detected) (size t)

let testable_coverage t =
  let ud = count t ~f:Status.is_undetectable in
  ratio (count_status t Status.Detected) (size t - ud)

let prune_undetectable t =
  let kept = ref [] in
  iteri
    (fun _ f s -> if not (Status.is_undetectable s) then kept := f :: !kept)
    t;
  of_faults t.nl (Array.of_list (List.rev !kept))

let pp_summary ppf t =
  Format.fprintf ppf "@[<v>faults: %d@," (size t);
  List.iter
    (fun (c, n) -> Format.fprintf ppf "  %s: %d@," c n)
    (by_class t);
  Format.fprintf ppf "FC: %.2f%%  testable FC: %.2f%%@]"
    (100. *. fault_coverage t)
    (100. *. testable_coverage t)
