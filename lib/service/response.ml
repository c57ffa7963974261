module J = Olfu_obs.Json

type status = Success | Findings | Bad_input

let exit_code = function Success -> 0 | Findings -> 1 | Bad_input -> 2

let status_of_code = function
  | 0 -> Some Success
  | 1 -> Some Findings
  | 2 -> Some Bad_input
  | _ -> None

type t = {
  id : int;
  status : status;
  cache_hit : bool;
  seconds : float;
  output : string;
  error : string option;
}

let make ?(cache_hit = false) ?(seconds = 0.) ?error ~id ~status output =
  { id; status; cache_hit; seconds; output; error }

let fail ~id msg = make ~id ~status:Bad_input ~error:msg ""

let to_json t =
  J.Obj
    [
      ("id", J.Int t.id);
      ("status", J.Int (exit_code t.status));
      ("cache_hit", J.Bool t.cache_hit);
      ("seconds", J.Float t.seconds);
      ("output", J.Str t.output);
      ("error", match t.error with None -> J.Null | Some e -> J.Str e);
    ]

let of_json j =
  match j with
  | J.Obj _ -> (
    let id =
      match Option.bind (J.member "id" j) J.to_int_opt with
      | Some i -> i
      | None -> 0
    in
    let status =
      match
        Option.bind
          (Option.bind (J.member "status" j) J.to_int_opt)
          status_of_code
      with
      | Some s -> s
      | None -> Bad_input
    in
    let cache_hit =
      match J.member "cache_hit" j with Some (J.Bool b) -> b | _ -> false
    in
    let seconds =
      match Option.bind (J.member "seconds" j) J.to_float_opt with
      | Some s -> s
      | None -> 0.
    in
    match Option.bind (J.member "output" j) J.to_string_opt with
    | None -> Error "missing \"output\" field"
    | Some output ->
      let error =
        match J.member "error" j with Some (J.Str e) -> Some e | _ -> None
      in
      Ok { id; status; cache_hit; seconds; output; error })
  | _ -> Error "response must be a JSON object"

let of_string s =
  match J.parse s with
  | Error e -> Error ("parse error: " ^ e)
  | Ok j -> of_json j

let to_line t = J.to_string (to_json t)

let output_line oc t =
  J.to_channel oc (to_json t);
  output_char oc '\n'
