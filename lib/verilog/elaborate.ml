open Olfu_logic
open Olfu_netlist

exception Error of string

let err fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

(* --- net slots: union-find cells that eventually hold one driver --- *)

type driver = Dnode of int

type slot = { mutable link : link }
and link = Root of driver option | To of slot

let fresh_slot () = { link = Root None }

let rec find s = match s.link with Root _ -> s | To p ->
  let r = find p in
  s.link <- To r;
  r

let driver_of s =
  match (find s).link with Root d -> d | To _ -> assert false

let set_driver ~what s d =
  let r = find s in
  match r.link with
  | Root None -> r.link <- Root (Some d)
  | Root (Some _) -> err "multiple drivers on net %s" what
  | To _ -> assert false

let union ~what a b =
  let ra = find a and rb = find b in
  if ra != rb then begin
    let da = match ra.link with Root d -> d | To _ -> assert false in
    let db = match rb.link with Root d -> d | To _ -> assert false in
    let d =
      match da, db with
      | Some _, Some _ -> err "multiple drivers on net %s" what
      | (Some _ as d), None | None, d -> d
    in
    ra.link <- To rb;
    rb.link <- Root d
  end

(* --- primitive cell resolution --- *)

let strip_arity s =
  let n = String.length s in
  let rec go i = if i > 0 && s.[i - 1] >= '0' && s.[i - 1] <= '9' then go (i - 1) else i in
  String.sub s 0 (go n)

let prim_of_master master =
  match String.uppercase_ascii (strip_arity master) with
  | "BUF" | "BUFF" -> Some Cell.Buf
  | "NOT" | "INV" -> Some Cell.Not
  | "AND" -> Some Cell.And
  | "NAND" -> Some Cell.Nand
  | "OR" -> Some Cell.Or
  | "NOR" -> Some Cell.Nor
  | "XOR" -> Some Cell.Xor
  | "XNOR" -> Some Cell.Xnor
  | "MUX" -> Some Cell.Mux2
  | "DFF" -> Some Cell.Dff
  | "DFFR" -> Some Cell.Dffr
  | "SDFF" -> Some Cell.Sdff
  | "SDFFR" -> Some Cell.Sdffr
  | "TIE" -> (
    match String.uppercase_ascii master with
    | "TIE0" -> Some Cell.Tie0
    | "TIE1" -> Some Cell.Tie1
    | _ -> None)
  | "TIEX" -> Some Cell.Tiex
  | _ -> None

let is_output_pin p =
  match String.uppercase_ascii p with
  | "Y" | "Q" | "Z" | "O" | "OUT" -> true
  | _ -> false

let is_clock_pin p =
  match String.uppercase_ascii p with "CK" | "CLK" | "C" -> true | _ -> false

(* Canonical input-pin index for a named connection. *)
let input_pin_index kind pin =
  let p = String.uppercase_ascii pin in
  let letter () =
    if String.length p = 1 && p.[0] >= 'A' && p.[0] <= 'H' then
      Some (Char.code p.[0] - Char.code 'A')
    else None
  in
  let ix () =
    if String.length p >= 2 && (p.[0] = 'I' || p.[0] = 'D') then
      int_of_string_opt (String.sub p 1 (String.length p - 1))
    else None
  in
  match kind, p with
  | Cell.Mux2, "S" | Cell.Mux2, "SEL" -> Some 0
  | Cell.Mux2, "A" | Cell.Mux2, "D0" -> Some 1
  | Cell.Mux2, "B" | Cell.Mux2, "D1" -> Some 2
  | (Cell.Dff | Cell.Dffr | Cell.Sdff | Cell.Sdffr), "D" -> Some 0
  | Cell.Dffr, "RSTN" | Cell.Dffr, "RN" -> Some 1
  | (Cell.Sdff | Cell.Sdffr), "SI" -> Some 1
  | (Cell.Sdff | Cell.Sdffr), "SE" -> Some 2
  | Cell.Sdffr, "RSTN" | Cell.Sdffr, "RN" -> Some 3
  | (Cell.And | Cell.Nand | Cell.Or | Cell.Nor | Cell.Xor | Cell.Xnor
    | Cell.Buf | Cell.Not), _ -> (
    match letter () with Some i -> Some i | None -> ix ())
  | _ -> None

(* --- elaboration --- *)

type pending = {
  kind : Cell.kind;
  fanin : slot array;
  mutable pname : string option;
}

type ctx = {
  mods : (string, Ast.modul) Hashtbl.t;
  nodes : pending Vec.t;
  named_bits : (string * slot) Vec.t;  (* flat name -> slot, first wins *)
}

let push_node ctx kind fanin =
  Vec.push ctx.nodes { kind; fanin; pname = None }

let const_slot ctx v =
  let s = fresh_slot () in
  let idx = push_node ctx
      (match (v : Logic4.t) with
      | L0 -> Cell.Tie0
      | L1 -> Cell.Tie1
      | X | Z -> Cell.Tiex)
      [||]
  in
  set_driver ~what:"literal" s (Dnode idx);
  s

(* local environment of one module instance *)
type env = {
  prefix : string;
  decls : (string, Ast.decl) Hashtbl.t;
  bits : (string, slot) Hashtbl.t;  (* key: Ast.bit_name *)
}

let declare ctx env (d : Ast.decl) =
  if Hashtbl.mem env.decls d.Ast.dname then
    err "%snet %s declared twice" env.prefix d.Ast.dname;
  Hashtbl.add env.decls d.Ast.dname d;
  List.iter
    (fun (name, idx) ->
      let key = Ast.bit_name name idx in
      let s = fresh_slot () in
      Hashtbl.add env.bits key s;
      ignore (Vec.push ctx.named_bits (env.prefix ^ key, s) : int))
    (Ast.bits d)

let resolve_expr ctx env (e : Ast.expr) : slot list =
  match e with
  | Ast.Lit v -> [ const_slot ctx v ]
  | Ast.Bit (s, i) -> (
    match Hashtbl.find_opt env.bits (Ast.bit_name s (Some i)) with
    | Some slot -> [ slot ]
    | None -> err "%sundeclared net %s[%d]" env.prefix s i)
  | Ast.Ref s -> (
    match Hashtbl.find_opt env.decls s with
    | None -> err "%sundeclared net %s" env.prefix s
    | Some d ->
      List.map
        (fun (name, idx) -> Hashtbl.find env.bits (Ast.bit_name name idx))
        (Ast.bits d))

let scalar ctx env what e =
  match resolve_expr ctx env e with
  | [ s ] -> s
  | l -> err "%s%s: expected a scalar, got %d bits" env.prefix what (List.length l)

let rec elaborate_module ctx ~prefix (m : Ast.modul)
    ~(port_bind : (string * slot list) list) =
  let env = { prefix; decls = Hashtbl.create 37; bits = Hashtbl.create 37 } in
  List.iter
    (fun item ->
      match (item : Ast.item) with
      | Ast.Input ds | Ast.Output ds | Ast.Wire ds ->
        List.iter (declare ctx env) ds
      | Ast.Instance _ -> ())
    m.Ast.items;
  (* connect formal ports to actual slots *)
  List.iter
    (fun (port, actual) ->
      match Hashtbl.find_opt env.decls port with
      | None -> err "%smodule %s has no port %s" prefix m.Ast.mname port
      | Some d ->
        let formal =
          List.map
            (fun (name, idx) -> Hashtbl.find env.bits (Ast.bit_name name idx))
            (Ast.bits d)
        in
        if List.length formal <> List.length actual then
          err "%sport %s width mismatch (%d vs %d)" prefix port
            (List.length formal) (List.length actual);
        List.iter2 (fun f a -> union ~what:(prefix ^ port) f a) formal actual)
    port_bind;
  (* instances *)
  List.iter
    (fun item ->
      match (item : Ast.item) with
      | Ast.Input _ | Ast.Output _ | Ast.Wire _ -> ()
      | Ast.Instance { master; iname; conns } -> (
        match prim_of_master master with
        | Some kind -> elaborate_primitive ctx env ~kind ~master ~iname conns
        | None -> (
          match Hashtbl.find_opt ctx.mods master with
          | None -> err "%sunknown module or primitive %s" prefix master
          | Some sub ->
            let binds = bind_ports ctx env ~prefix ~iname sub conns in
            elaborate_module ctx
              ~prefix:(prefix ^ iname ^ "/")
              sub ~port_bind:binds)))
    m.Ast.items

and bind_ports ctx env ~prefix ~iname (sub : Ast.modul) conns =
  let named, positional =
    List.partition_map
      (fun c ->
        match (c : Ast.conn) with
        | Ast.Named (p, e) -> Left (p, e)
        | Ast.Pos e -> Right e)
      conns
  in
  match named, positional with
  | [], pos ->
    if List.length pos <> List.length sub.Ast.ports then
      err "%s%s: %d connections for %d ports" prefix iname (List.length pos)
        (List.length sub.Ast.ports);
    List.map2
      (fun port e -> (port, resolve_expr ctx env e))
      sub.Ast.ports pos
  | named, [] ->
    List.map (fun (p, e) -> (p, resolve_expr ctx env e)) named
  | _ -> err "%s%s: mixed named and positional connections" prefix iname

and elaborate_primitive ctx env ~kind ~master ~iname conns =
  let what = env.prefix ^ iname in
  let named, positional =
    List.partition_map
      (fun c ->
        match (c : Ast.conn) with
        | Ast.Named (p, e) -> Left (p, e)
        | Ast.Pos e -> Right e)
      conns
  in
  let out = ref None in
  let ins = Hashtbl.create 7 in
  let add_in i s =
    if Hashtbl.mem ins i then err "%s: input pin %d connected twice" what i;
    Hashtbl.add ins i s
  in
  (match named, positional with
  | [], e0 :: rest ->
    out := Some (scalar ctx env what e0);
    List.iteri (fun i e -> add_in i (scalar ctx env what e)) rest
  | [], [] -> err "%s: no connections" what
  | named, [] ->
    List.iter
      (fun (p, e) ->
        if is_output_pin p then out := Some (scalar ctx env what e)
        else if is_clock_pin p then ()  (* implicit global clock *)
        else
          match input_pin_index kind p with
          | Some i -> add_in i (scalar ctx env what e)
          | None -> err "%s: unknown pin %s on %s" what p master)
      named
  | _ -> err "%s: mixed named and positional connections" what);
  let n_in = Hashtbl.length ins in
  (match Cell.arity kind with
  | Some a when a <> n_in ->
    err "%s: %s expects %d inputs, got %d" what master a n_in
  | _ ->
    if n_in < Cell.min_arity kind then
      err "%s: %s expects at least %d inputs" what master (Cell.min_arity kind));
  let fanin =
    Array.init n_in (fun i ->
        match Hashtbl.find_opt ins i with
        | Some s -> s
        | None -> err "%s: missing input pin %d" what i)
  in
  let idx = push_node ctx kind fanin in
  match !out with
  | None -> err "%s: output pin not connected" what
  | Some s -> set_driver ~what s (Dnode idx)

let to_netlist ?(roles = []) (design : Ast.design) =
  let mods = Hashtbl.create 17 in
  List.iter (fun m -> Hashtbl.replace mods m.Ast.mname m) design;
  let top_mod =
    match List.rev design with m :: _ -> m | [] -> err "empty design"
  in
  let ctx = { mods; nodes = Vec.create (); named_bits = Vec.create () } in
  (* direction of top-level ports *)
  let dir = Hashtbl.create 17 in
  List.iter
    (fun item ->
      match (item : Ast.item) with
      | Ast.Input ds -> List.iter (fun d -> Hashtbl.replace dir d.Ast.dname `In) ds
      | Ast.Output ds ->
        List.iter (fun d -> Hashtbl.replace dir d.Ast.dname `Out) ds
      | Ast.Wire _ | Ast.Instance _ -> ())
    top_mod.Ast.items;
  (* pre-create port slots so inputs drive and outputs observe *)
  let port_slots =
    List.map
      (fun p ->
        let d =
          List.find_map
            (fun item ->
              match (item : Ast.item) with
              | Ast.Input ds | Ast.Output ds | Ast.Wire ds ->
                List.find_opt (fun d -> d.Ast.dname = p) ds
              | Ast.Instance _ -> None)
            top_mod.Ast.items
        in
        let d = match d with Some d -> d | None -> err "port %s undeclared" p in
        (p, List.map (fun _ -> fresh_slot ()) (Ast.bits d), d))
      top_mod.Ast.ports
  in
  List.iter
    (fun (p, slots, d) ->
      match Hashtbl.find_opt dir p with
      | Some `In ->
        List.iter2
          (fun s (name, idx) ->
            let i = push_node ctx Cell.Input [||] in
            (Vec.get ctx.nodes i).pname <- Some (Ast.bit_name name idx);
            set_driver ~what:p s (Dnode i))
          slots (Ast.bits d)
      | Some `Out -> ()
      | None -> err "port %s has no direction" p)
    port_slots;
  elaborate_module ctx ~prefix:""
    top_mod
    ~port_bind:(List.map (fun (p, slots, _) -> (p, slots)) port_slots);
  (* output markers *)
  List.iter
    (fun (p, slots, d) ->
      match Hashtbl.find_opt dir p with
      | Some `Out ->
        List.iter2
          (fun s (name, idx) ->
            let i = push_node ctx Cell.Output [| s |] in
            (Vec.get ctx.nodes i).pname <-
              Some (Ast.bit_name name idx ^ "$out"))
          slots (Ast.bits d)
      | Some `In | None -> ())
    port_slots;
  (* name nets from declarations *)
  Vec.iteri
    (fun _ (flat, s) ->
      match driver_of s with
      | Some (Dnode i) ->
        let nd = Vec.get ctx.nodes i in
        if nd.pname = None then nd.pname <- Some flat
      | None -> ())
    ctx.named_bits;
  (* materialize: resolve fanin slots; undriven -> shared Tiex *)
  let floating = ref None in
  let resolve s =
    match driver_of s with
    | Some (Dnode i) -> i
    | None -> (
      match !floating with
      | Some i -> i
      | None ->
        let i = push_node ctx Cell.Tiex [||] in
        floating := Some i;
        i)
  in
  let n = Vec.length ctx.nodes in
  (* resolution may append the shared Tiex; snapshot first *)
  let fanins = Array.init n (fun i -> Array.map resolve (Vec.get ctx.nodes i).fanin) in
  let total = Vec.length ctx.nodes in
  let nodes =
    Array.init total (fun i ->
        let p = Vec.get ctx.nodes i in
        {
          Netlist.kind = p.kind;
          fanin = (if i < n then fanins.(i) else [||]);
          name = p.pname;
        })
  in
  (* dedupe names *)
  let seen = Hashtbl.create 97 in
  let nodes =
    Array.map
      (fun nd ->
        match nd.Netlist.name with
        | None -> nd
        | Some s ->
          if Hashtbl.mem seen s then begin
            let k = ref 1 in
            while Hashtbl.mem seen (Printf.sprintf "%s$%d" s !k) do incr k done;
            let s' = Printf.sprintf "%s$%d" s !k in
            Hashtbl.add seen s' ();
            { nd with Netlist.name = Some s' }
          end
          else begin
            Hashtbl.add seen s ();
            nd
          end)
      nodes
  in
  match Netlist.create nodes with
  | Error errs ->
    err "elaboration produced an invalid netlist: %a"
      Format.(
        pp_print_list ~pp_sep:(fun ppf () -> pp_print_string ppf "; ")
          Netlist.pp_error)
      errs
  | Ok nl ->
    if roles = [] then nl
    else begin
      let b = Netlist.Builder.of_netlist nl in
      List.iter
        (fun (name, role) ->
          match Netlist.find nl name with
          | Some i -> Netlist.Builder.add_role b i role
          | None -> err "role annotation on unknown net %s" name)
        roles;
      Netlist.Builder.freeze_exn b
    end

(* --- role sidecar --- *)

let role_of_tag tag =
  let int_suffix prefix =
    let plen = String.length prefix in
    if String.length tag > plen && String.sub tag 0 plen = prefix then
      int_of_string_opt (String.sub tag plen (String.length tag - plen))
    else None
  in
  match tag with
  | "clock" -> Some Netlist.Clock
  | "reset" -> Some Netlist.Reset
  | "scan-enable" -> Some Netlist.Scan_enable
  | "scan-in" -> Some Netlist.Scan_in
  | "scan-out" -> Some Netlist.Scan_out
  | "debug-control" -> Some Netlist.Debug_control
  | "debug-observe" -> Some Netlist.Debug_observe
  | _ -> (
    match int_suffix "address-reg:" with
    | Some i -> Some (Netlist.Address_reg i)
    | None -> (
      match int_suffix "address-port:" with
      | Some i -> Some (Netlist.Address_port i)
      | None -> None))

let roles_of_source src =
  String.split_on_char '\n' src
  |> List.filter_map (fun line ->
         let line = String.trim line in
         let prefix = "//@role " in
         if String.length line > String.length prefix
            && String.sub line 0 (String.length prefix) = prefix
         then
           let rest =
             String.sub line (String.length prefix)
               (String.length line - String.length prefix)
           in
           match String.index_opt rest ' ' with
           | None -> None
           | Some sp ->
             let name = String.sub rest 0 sp in
             let tag =
               String.trim (String.sub rest (sp + 1) (String.length rest - sp - 1))
             in
             Option.map (fun r -> (name, r)) (role_of_tag tag)
         else None)

let netlist_of_string src =
  let design = Parser.design_of_string src in
  to_netlist ~roles:(roles_of_source src) design

let netlist_of_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  netlist_of_string src
