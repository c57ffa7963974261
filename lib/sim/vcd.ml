open Olfu_logic
open Olfu_netlist

type t = {
  nl : Netlist.t;
  nets : int array;
  samples : Logic4.t array list ref;  (* newest first *)
}

let default_nets nl =
  let acc = ref [] in
  Netlist.iter_nodes
    (fun i nd ->
      let is_port =
        match nd.Netlist.kind with
        | Cell.Input | Cell.Output -> true
        | _ -> false
      in
      if is_port || nd.Netlist.name <> None then acc := i :: !acc)
    nl;
  List.rev !acc

let create ?nets nl =
  let nets =
    match nets with Some l -> l | None -> default_nets nl
  in
  { nl; nets = Array.of_list nets; samples = ref [] }

let sample t sim =
  t.samples :=
    Array.map (fun i -> Seq_sim.value sim i) t.nets :: !(t.samples)

(* VCD identifier codes: printable characters 33..126, base-94. *)
let code k =
  let b = Buffer.create 4 in
  let rec go k =
    Buffer.add_char b (Char.chr (33 + (k mod 94)));
    if k >= 94 then go ((k / 94) - 1)
  in
  go k;
  Buffer.contents b

let vcd_char = function
  | Logic4.L0 -> '0'
  | Logic4.L1 -> '1'
  | Logic4.X -> 'x'
  | Logic4.Z -> 'z'

let sanitize s =
  String.map
    (fun c ->
      if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9') || c = '_' || c = '[' || c = ']'
      then c
      else '_')
    s

let to_string ?(timescale = "1 ns") ?(modname = "top") t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "$date olfu $end\n";
  Buffer.add_string buf "$version olfu vcd writer $end\n";
  Buffer.add_string buf (Printf.sprintf "$timescale %s $end\n" timescale);
  Buffer.add_string buf (Printf.sprintf "$scope module %s $end\n" modname);
  Array.iteri
    (fun k i ->
      let name =
        match Netlist.name t.nl i with
        | Some s -> sanitize s
        | None -> Printf.sprintf "n%d" i
      in
      Buffer.add_string buf
        (Printf.sprintf "$var wire 1 %s %s $end\n" (code k) name))
    t.nets;
  Buffer.add_string buf "$upscope $end\n$enddefinitions $end\n";
  let samples = List.rev !(t.samples) in
  let prev = Array.make (Array.length t.nets) None in
  List.iteri
    (fun ts values ->
      Buffer.add_string buf (Printf.sprintf "#%d\n" ts);
      if ts = 0 then Buffer.add_string buf "$dumpvars\n";
      Array.iteri
        (fun k v ->
          if prev.(k) <> Some v then begin
            prev.(k) <- Some v;
            Buffer.add_char buf (vcd_char v);
            Buffer.add_string buf (code k);
            Buffer.add_char buf '\n'
          end)
        values;
      if ts = 0 then Buffer.add_string buf "$end\n")
    samples;
  Buffer.add_string buf (Printf.sprintf "#%d\n" (List.length samples));
  Buffer.contents buf

let to_file ?timescale ?modname t path =
  let oc = open_out path in
  output_string oc (to_string ?timescale ?modname t);
  close_out oc
