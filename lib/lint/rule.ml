type severity = Error | Warning | Info

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_of_name = function
  | "error" -> Some Error
  | "warning" -> Some Warning
  | "info" -> Some Info
  | _ -> None

let severity_rank = function Error -> 3 | Warning -> 2 | Info -> 1

type category =
  | Scan
  | Reset
  | Clock
  | Net
  | Observability
  | Debug
  | Structure
  | Testability
  | Software
  | Invariant

let category_name = function
  | Scan -> "scan"
  | Reset -> "reset"
  | Clock -> "clock"
  | Net -> "net"
  | Observability -> "observability"
  | Debug -> "debug"
  | Structure -> "structure"
  | Testability -> "testability"
  | Software -> "software"
  | Invariant -> "invariant"

type finding = {
  code : string;
  severity : severity;
  message : string;
  node : int option;
  path : int list;
}

type raw = { r_message : string; r_node : int option; r_path : int list }

let raw ?node ?(path = []) message =
  { r_message = message; r_node = node; r_path = path }

type t = {
  code : string;
  category : category;
  severity : severity;
  title : string;
  doc : string;
  run : Ctx.t -> raw list;
}

let make ~code ~category ~severity ~title ~doc run =
  { code; category; severity; title; doc; run }
