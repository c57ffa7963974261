module Ternary = Olfu_atpg.Ternary
module Trace = Olfu_obs.Trace
module Json = Olfu_obs.Json

type t = {
  ff_mode : Ternary.ff_mode;
  jobs : int;
  implic : bool;
  trace : Trace.sink;
}

let default =
  { ff_mode = Ternary.Steady_state; jobs = 1; implic = true; trace = Trace.null }

let ff_mode_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "cut" -> Some Ternary.Cut
  | "reset_join" | "reset-join" -> Some Ternary.Reset_join
  | "steady_state" | "steady-state" | "steady" -> Some Ternary.Steady_state
  | _ -> None

let ff_mode_name = function
  | Ternary.Cut -> "cut"
  | Ternary.Reset_join -> "reset_join"
  | Ternary.Steady_state -> "steady_state"

let to_json c =
  Json.Obj
    [
      ("ff_mode", Json.Str (ff_mode_name c.ff_mode));
      ("jobs", Json.Int c.jobs);
      ("implic", Json.Bool c.implic);
      ("trace", Json.Bool (Trace.enabled c.trace));
    ]
