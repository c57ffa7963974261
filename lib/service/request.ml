module J = Olfu_obs.Json
module Rule = Olfu_lint.Rule

type target = Config of string | File of string
type fmt = Text | Json | Summary
type fail_on = Never | Fail_on of Rule.severity

type op =
  | Analyze of { paper : bool }
  | Lint of {
      waivers : string option;
      baseline : string option;
      disabled : string list;
      software : bool;
      invariants : bool;
      fail_on : fail_on;
    }
  | Implic of { learn_depth : int; learn_budget : int; invariants : bool }
  | Absint of { programs : string list; asm : string option }
  | Invar of { k : int; no_prove : bool }
  | Safety of { window : int; seu_limit : int }
  | Slice of { dot : bool }
  | Coverage of { sample : int }

type run = {
  target : target;
  ff_mode : Olfu_atpg.Ternary.ff_mode;
  jobs : int;
  implic : bool;
  fmt : fmt;
  op : op;
}

type body = Ping | Stats | Shutdown | Run of run
type t = { id : int; body : body }

let op_name = function
  | Analyze _ -> "analyze"
  | Lint _ -> "lint"
  | Implic _ -> "implic"
  | Absint _ -> "absint"
  | Invar _ -> "invar"
  | Safety _ -> "safety"
  | Slice _ -> "slice"
  | Coverage _ -> "coverage"

let default_run =
  {
    target = Config "tcore32";
    ff_mode = Olfu_atpg.Ternary.Steady_state;
    jobs = 1;
    implic = true;
    fmt = Text;
    op = Analyze { paper = false };
  }

let run ?(id = 0) ?(fmt = Text) ?(jobs = 1) ?ff_mode ?(implic = true) target
    op =
  let ff_mode =
    match ff_mode with
    | Some m -> m
    | None -> Olfu_atpg.Ternary.Steady_state
  in
  { id; body = Run { target; ff_mode; jobs; implic; fmt; op } }

(* -- encoding ----------------------------------------------------- *)

let fmt_name = function Text -> "text" | Json -> "json" | Summary -> "summary"

let fmt_of_name = function
  | "text" -> Some Text
  | "json" -> Some Json
  | "summary" -> Some Summary
  | _ -> None

let fail_on_name = function
  | Never -> "never"
  | Fail_on s -> Rule.severity_name s

let fail_on_of_name = function
  | "never" -> Some Never
  | s -> Option.map (fun s -> Fail_on s) (Rule.severity_of_name s)

let target_json = function
  | Config s -> J.Obj [ ("config", J.Str s) ]
  | File s -> J.Obj [ ("file", J.Str s) ]

let opt_str = function None -> J.Null | Some s -> J.Str s
let str_list l = J.List (List.map (fun s -> J.Str s) l)

(* The op's parameter object: always complete (every field present) so
   the wire form is self-describing and [fingerprint] is stable. *)
let op_params = function
  | Analyze { paper } -> [ ("paper", J.Bool paper) ]
  | Lint { waivers; baseline; disabled; software; invariants; fail_on } ->
    [
      ("waivers", opt_str waivers);
      ("baseline", opt_str baseline);
      ("disabled", str_list disabled);
      ("software", J.Bool software);
      ("invariants", J.Bool invariants);
      ("fail_on", J.Str (fail_on_name fail_on));
    ]
  | Implic { learn_depth; learn_budget; invariants } ->
    [
      ("learn_depth", J.Int learn_depth);
      ("learn_budget", J.Int learn_budget);
      ("invariants", J.Bool invariants);
    ]
  | Absint { programs; asm } ->
    [ ("programs", str_list programs); ("asm", opt_str asm) ]
  | Invar { k; no_prove } ->
    [ ("k", J.Int k); ("no_prove", J.Bool no_prove) ]
  | Safety { window; seu_limit } ->
    [ ("window", J.Int window); ("seu_limit", J.Int seu_limit) ]
  | Slice { dot } -> [ ("dot", J.Bool dot) ]
  | Coverage { sample } -> [ ("sample", J.Int sample) ]

let params_json op = J.Obj (op_params op)

let to_json t =
  match t.body with
  | Ping -> J.Obj [ ("id", J.Int t.id); ("op", J.Str "ping") ]
  | Stats -> J.Obj [ ("id", J.Int t.id); ("op", J.Str "stats") ]
  | Shutdown -> J.Obj [ ("id", J.Int t.id); ("op", J.Str "shutdown") ]
  | Run r ->
    J.Obj
      [
        ("id", J.Int t.id);
        ("op", J.Str (op_name r.op));
        ("target", target_json r.target);
        ("ff_mode", J.Str (Olfu.Run_config.ff_mode_name r.ff_mode));
        ("jobs", J.Int r.jobs);
        ("implic", J.Bool r.implic);
        ("format", J.Str (fmt_name r.fmt));
        ("params", J.Obj (op_params r.op));
      ]

(* -- decoding ------------------------------------------------------ *)

(* Tolerant about absence, strict about nonsense: a missing field takes
   the CLI default, an unknown field is ignored, but a field that is
   present with an unusable value is an error — silently falling back
   would run the wrong analysis for a typo'd request. *)

exception Bad of string

let badf fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt
let mem k j = J.member k j

let get_bool ~default k j =
  match mem k j with
  | None | Some J.Null -> default
  | Some (J.Bool b) -> b
  | Some _ -> badf "field %S must be a boolean" k

let get_int ~default k j =
  match mem k j with
  | None | Some J.Null -> default
  | Some v -> (
    match J.to_int_opt v with
    | Some i -> i
    | None -> badf "field %S must be an integer" k)

let get_str k j =
  match mem k j with
  | None | Some J.Null -> None
  | Some v -> (
    match J.to_string_opt v with
    | Some _ as s -> s
    | None -> badf "field %S must be a string" k)

let get_str_opt ~default k j =
  match mem k j with
  | None -> default
  | Some J.Null -> None
  | Some (J.Str s) -> Some s
  | Some _ -> badf "field %S must be a string or null" k

let get_str_list ~default k j =
  match mem k j with
  | None | Some J.Null -> default
  | Some v -> (
    match J.to_list_opt v with
    | None -> badf "field %S must be a list of strings" k
    | Some l ->
      List.map
        (function
          | J.Str s -> s
          | _ -> badf "field %S must be a list of strings" k)
        l)

let op_of_json name params =
  match name with
  | "analyze" -> Ok (Analyze { paper = get_bool ~default:false "paper" params })
  | "lint" ->
    let fail_on =
      match get_str "fail_on" params with
      | None -> Fail_on Rule.Error (* the CLI's --fail-on default *)
      | Some s -> (
        match fail_on_of_name s with
        | Some f -> f
        | None -> badf "unknown fail_on severity %S" s)
    in
    Ok
      (Lint
         {
           waivers = get_str_opt ~default:None "waivers" params;
           baseline = get_str_opt ~default:None "baseline" params;
           disabled = get_str_list ~default:[] "disabled" params;
           software = get_bool ~default:false "software" params;
           invariants = get_bool ~default:false "invariants" params;
           fail_on;
         })
  | "implic" ->
    Ok
      (Implic
         {
           learn_depth = get_int ~default:2 "learn_depth" params;
           learn_budget = get_int ~default:200_000 "learn_budget" params;
           invariants = get_bool ~default:false "invariants" params;
         })
  | "absint" ->
    Ok
      (Absint
         {
           programs = get_str_list ~default:[] "programs" params;
           asm = get_str_opt ~default:None "asm" params;
         })
  | "invar" ->
    Ok
      (Invar
         {
           k = get_int ~default:1 "k" params;
           no_prove = get_bool ~default:false "no_prove" params;
         })
  | "safety" ->
    Ok
      (Safety
         {
           window = get_int ~default:4 "window" params;
           seu_limit = get_int ~default:64 "seu_limit" params;
         })
  | "slice" -> Ok (Slice { dot = get_bool ~default:false "dot" params })
  | "coverage" ->
    Ok (Coverage { sample = get_int ~default:1000 "sample" params })
  | other -> Error (Printf.sprintf "unknown op %S" other)

(* A depth below one cycle makes a vacuous verdict: a 0-cycle SEU
   window calls every flop masked, a depth-0 induction proves
   nothing. *)
let check op =
  let at_least_1 field v =
    if v < 1 then
      Error (Printf.sprintf "field %S must be at least 1 (got %d)" field v)
    else Ok op
  in
  match op with
  | Invar { k; _ } -> at_least_1 "k" k
  | Safety { window; _ } -> at_least_1 "window" window
  | _ -> Ok op

let of_json j =
  match j with
  | J.Obj _ -> (
    try
      let id = get_int ~default:0 "id" j in
      match get_str "op" j with
      | None -> Error "missing \"op\" field"
      | Some "ping" -> Ok { id; body = Ping }
      | Some "stats" -> Ok { id; body = Stats }
      | Some "shutdown" -> Ok { id; body = Shutdown }
      | Some name -> (
        let params =
          match mem "params" j with
          | None | Some J.Null -> J.Obj []
          | Some (J.Obj _ as p) -> p
          | Some _ -> badf "field \"params\" must be an object"
        in
        match Result.bind (op_of_json name params) check with
        | Error _ as e -> e
        | Ok op ->
          let target =
            match mem "target" j with
            | None | Some J.Null -> default_run.target
            | Some (J.Obj _ as t) -> (
              match get_str "config" t with
              | Some c -> Config c
              | None -> (
                match get_str "file" t with
                | Some f -> File f
                | None ->
                  badf "field \"target\" must carry \"config\" or \"file\""))
            | Some (J.Str c) -> Config c
            | Some _ -> badf "field \"target\" must be an object or string"
          in
          let ff_mode =
            match get_str "ff_mode" j with
            | None -> default_run.ff_mode
            | Some s -> (
              match Olfu.Run_config.ff_mode_of_string s with
              | Some m -> m
              | None -> badf "unknown ff_mode %S" s)
          in
          let fmt =
            match get_str "format" j with
            | None -> default_run.fmt
            | Some s -> (
              match fmt_of_name s with
              | Some f -> f
              | None -> badf "unknown format %S" s)
          in
          Ok
            {
              id;
              body =
                Run
                  {
                    target;
                    ff_mode;
                    jobs = get_int ~default:default_run.jobs "jobs" j;
                    implic = get_bool ~default:default_run.implic "implic" j;
                    fmt;
                    op;
                  };
            })
    with Bad msg -> Error msg)
  | _ -> Error "request must be a JSON object"

let of_string s =
  match J.parse s with
  | Error e -> Error ("parse error: " ^ e)
  | Ok j -> of_json j

let to_line t = J.to_string (to_json t)

let fingerprint r =
  Printf.sprintf "%s/%s/%s/%s" (op_name r.op)
    (Olfu.Run_config.ff_mode_name r.ff_mode)
    (if r.implic then "implic" else "noimplic")
    (J.to_string (J.Obj (op_params r.op)))
