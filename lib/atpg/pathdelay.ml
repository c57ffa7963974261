open Olfu_logic
open Olfu_netlist

type path = {
  launch : int;
  hops : (int * int) list;
}

let capture p =
  match List.rev p.hops with
  | (sink, _) :: _ -> sink
  | [] -> p.launch

let is_endpoint nl sink =
  Cell.equal_kind (Netlist.kind nl sink) Cell.Output
  || Cell.is_seq (Netlist.kind nl sink)

let max_len = 256

let enumerate ?(max_paths = 10_000) nl =
  let paths = ref [] in
  let count = ref 0 in
  let exception Launch_done in
  let launch_points =
    Array.append (Netlist.inputs nl) (Netlist.seq_nodes nl)
  in
  (* stratified: cap each launch point's share so the sample is not just
     the DFS prefix of the first few ports *)
  let per_launch =
    max 1 (max_paths / max 1 (Array.length launch_points))
  in
  let launch_count = ref 0 in
  let emit launch rev_hops =
    incr count;
    incr launch_count;
    paths := { launch; hops = List.rev rev_hops } :: !paths;
    if !launch_count >= per_launch || !count >= max_paths then
      raise Launch_done
  in
  let rec extend launch node rev_hops len =
    if len < max_len then
      Array.iter
        (fun (sink, pin) ->
          let hops = (sink, pin) :: rev_hops in
          if is_endpoint nl sink then emit launch hops
          else extend launch sink hops (len + 1))
        (Netlist.fanout nl node)
  in
  Array.iter
    (fun l ->
      launch_count := 0;
      if !count < max_paths then
        try extend l l [] 0 with Launch_done -> ())
    launch_points;
  List.rev !paths

(* transitive fanout of the launch node: side inputs inside it are
   transition-correlated, so their constants must not block the path *)
let launch_cone nl launch =
  let cone = Array.make (Netlist.length nl) false in
  let rec visit i =
    if not cone.(i) then begin
      cone.(i) <- true;
      Array.iter
        (fun (sink, _) ->
          if not (is_endpoint nl sink) then visit sink
          else cone.(sink) <- true)
        (Netlist.fanout nl i)
    end
  in
  visit launch;
  cone

let untestable_with_cone t cone p =
  let nl = t.Untestable.netlist in
  let consts = t.Untestable.consts.Ternary.values in
  let exempt i = cone.(i) in
  (* constant launch point: no transition can start *)
  Logic4.is_binary consts.(p.launch)
  || List.exists
       (fun (sink, pin) ->
         (* side inputs tied controlling, or the stage output constant *)
         (not (Observe.pin_allowed_exempt ~exempt nl consts sink pin))
         ||
         (not (is_endpoint nl sink))
         && Logic4.is_binary consts.(sink))
       p.hops

let untestable t p =
  untestable_with_cone t (launch_cone t.Untestable.netlist p.launch) p

type census = {
  enumerated : int;
  untestable_paths : int;
  truncated : bool;
}

let classify ?(max_paths = 10_000) t nl =
  let paths = enumerate ~max_paths nl in
  (* cache the launch cones: paths are grouped by launch point *)
  let cones = Hashtbl.create 97 in
  let cone_of launch =
    match Hashtbl.find_opt cones launch with
    | Some c -> c
    | None ->
      let c = launch_cone nl launch in
      Hashtbl.replace cones launch c;
      c
  in
  let u =
    List.length
      (List.filter (fun p -> untestable_with_cone t (cone_of p.launch) p) paths)
  in
  {
    enumerated = List.length paths;
    untestable_paths = u;
    truncated = List.length paths >= max_paths;
  }

let pp_census ppf c =
  Format.fprintf ppf "paths: %d%s, untestable: %d (%.1f%%)" c.enumerated
    (if c.truncated then " (capped)" else "")
    c.untestable_paths
    (100. *. float_of_int c.untestable_paths
    /. float_of_int (max 1 c.enumerated))
