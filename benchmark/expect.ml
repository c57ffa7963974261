(* Correctness pins: facts read from a response's JSON rendering,
   compared against the values recorded in benchmark/expect.json when
   the benchmark was defined. *)

module J = Olfu_obs.Json

let path_int path j =
  let rec walk j = function
    | [] -> J.to_int_opt j
    | k :: rest -> Option.bind (J.member k j) (fun v -> walk v rest)
  in
  walk j (String.split_on_char '.' path)

(* The verdict counts that identify an op's result. *)
let fact_paths = function
  | "analyze" -> [ "universe"; "table1.grand_total.count" ]
  | "invar" -> [ "mined"; "killed"; "unproved"; "proved" ]
  | "safety" ->
    [
      "classes.structural_uc"; "classes.conflict_uc"; "classes.software_safe";
      "classes.invariant_safe"; "classes.unclassified"; "seu.seu_masked";
      "seu.seu_protected"; "seu.seu_vulnerable"; "seu.seu_unknown";
    ]
  | "slice" -> [ "flops"; "mission_scc.components"; "mission_scc.largest" ]
  | "coverage" ->
    [ "coverage.total_faults"; "coverage.detected"; "coverage.undetectable" ]
  | _ -> []

(* Table I's conflict-untestable total: UC summed over the flow steps. *)
let uc j =
  match Option.bind (J.member "steps" j) J.to_list_opt with
  | None -> None
  | Some steps ->
    Some
      (List.fold_left
         (fun acc s ->
           acc
           + Option.value ~default:0
               (Option.bind (J.member "by_verdict" s) (fun v ->
                    Option.bind (J.member "UC" v) J.to_int_opt)))
         0 steps)

let facts op output =
  match J.parse output with
  | Error e -> Error ("unparsable JSON output: " ^ e)
  | Ok j ->
    let derived = if op = "analyze" then [ ("UC", uc j) ] else [] in
    let fs = List.map (fun p -> (p, path_int p j)) (fact_paths op) @ derived in
    match List.find_opt (fun (_, v) -> v = None) fs with
    | Some (k, _) -> Error ("missing fact " ^ k)
    | None -> Ok (List.map (fun (k, v) -> (k, Option.get v)) fs)

type t = (string * (string * int) list) list

let file = Filename.concat "benchmark" "expect.json"

let load () : t =
  let j =
    match J.parse (In_channel.with_open_bin file In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith (file ^ ": " ^ e)
  in
  match j with
  | J.Obj pins ->
    List.map
      (fun (label, v) ->
        match v with
        | J.Obj fs ->
          ( label,
            List.map
              (fun (k, n) ->
                match J.to_int_opt n with
                | Some n -> (k, n)
                | None -> failwith (file ^ ": non-integer pin " ^ label ^ "." ^ k))
              fs )
        | _ -> failwith (file ^ ": pins of " ^ label ^ " are not an object"))
      pins
  | _ -> failwith (file ^ ": not an object")

(* [Ok ()] when [label] has no pins or every pinned fact matches. *)
let check (pins : t) ~label ~op output =
  match List.assoc_opt label pins with
  | None -> Ok ()
  | Some want -> (
    match facts op output with
    | Error e -> Error (label ^ ": " ^ e)
    | Ok got -> (
      match List.find_opt (fun (k, v) -> List.assoc_opt k got <> Some v) want with
      | None -> Ok ()
      | Some (k, v) ->
        Error
          (Printf.sprintf "%s: %s is %s, pinned %d" label k
             (match List.assoc_opt k got with Some g -> string_of_int g | None -> "absent")
             v)))
