(* Shared CLI plumbing: the unified --format/--jobs/--trace/--manifest/
   --connect argument set, the documented exit-code convention, and
   [run_request] — the one adapter through which every analysis
   subcommand executes, locally via a fresh service session or remotely
   via the daemon.  Rendering and engine dispatch live in
   [Olfu_service.Service]; nothing here knows what an op does. *)

open Cmdliner
module J = Olfu_obs.Json
module Trace = Olfu_obs.Trace
module Export = Olfu_obs.Export
module Manifest = Olfu_obs.Manifest
module S = Olfu_service

let format_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("text", S.Request.Text);
             ("json", S.Request.Json);
             ("summary", S.Request.Summary);
           ])
        S.Request.Text
    & info [ "format" ] ~docv:"FMT"
        ~doc:
          "Output format: $(b,text), $(b,json) (deterministic machine \
           form), or $(b,summary) (key/value table).")

(* The one exit-code convention, documented once and attached to every
   analysis subcommand: 0 = clean, 1 = the analysis ran and reported
   findings (lint fails, degraded abstract states, inconsistent safety
   taxonomy), 2 = the request was unusable.  Mirrors
   [Olfu_service.Response.status]. *)
let std_exits =
  Cmd.Exit.info 0 ~doc:"analysis clean: no finding to report."
  :: Cmd.Exit.info 1
       ~doc:
         "findings: the analysis ran and reported violations (lint \
          findings at or above $(b,--fail-on), a degraded abstract \
          state or failed cross-check, an inconsistent safety taxonomy)."
  :: Cmd.Exit.info 2
       ~doc:
         "bad input: unknown configuration or program, unreadable \
          netlist, waiver, baseline or assembly file, unreachable \
          daemon."
  :: Cmd.Exit.defaults

(* --- observability --- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record spans and counters and write a Chrome trace_event JSON \
           timeline here (load in chrome://tracing or Perfetto).")

let manifest_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "manifest" ] ~docv:"FILE"
        ~doc:
          "Write a flat JSON run manifest here: configuration, git \
           describe, wall seconds, per-engine and per-step seconds, \
           counter totals.")

let connect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"SOCK"
        ~doc:
          "Send the request to a running $(b,olfu serve) daemon on this \
           Unix socket instead of computing locally.  Output bytes are \
           identical; warm requests return from the daemon's cache.")

let sink_for ~trace ~manifest =
  if trace <> None || manifest <> None then Trace.create () else Trace.null

(* Write whichever observability files were requested. *)
let write_obs ~trace ~manifest ?config ?steps ?prep ?extra ~wall_seconds sink
    =
  (match trace with
  | None -> ()
  | Some path ->
    Export.to_file sink path;
    Format.printf "wrote %s@." path);
  match manifest with
  | None -> ()
  | Some path ->
    Manifest.to_file
      (Manifest.make ?config ?steps ?prep ?extra ~wall_seconds sink)
      path;
    Format.printf "wrote %s@." path

(* Manifest [config] fields for a flow run (non-service subcommands:
   tdf, atpg): the target, keyed as the service keys it, then the run
   configuration. *)
let config_fields target rc =
  let base =
    match Olfu.Run_config.to_json rc with J.Obj l -> l | _ -> []
  in
  (match target with
  | S.Request.Config name -> ("soc", J.Str name)
  | S.Request.File path -> ("file", J.Str path))
  :: base

(* --- the service adapter --- *)

let exit_with status =
  match status with
  | S.Response.Success -> `Ok ()
  | s ->
    flush stdout;
    exit (S.Response.exit_code s)

let req_op_name (req : S.Request.t) =
  match req.S.Request.body with
  | S.Request.Run r -> S.Request.op_name r.S.Request.op
  | _ -> "request"

(* Execute one request and print its rendering: through the daemon when
   [connect] names its socket, else locally on a fresh session — the
   same [Service.execute] either way, so the bytes match.  [on_meta]
   lets a subcommand consume side artifacts (DOT graph, baseline lines)
   before the exit status is applied; [force_ok] downgrades a Findings
   exit to success (lint --update-baseline).  *)
let run_request ?(on_meta = fun (_ : S.Service.meta) -> ())
    ?(force_ok = false) ~connect ~trace ~manifest (req : S.Request.t) =
  let finish (resp : S.Response.t) =
    print_string resp.S.Response.output;
    (match resp.S.Response.error with
    | Some m -> Format.eprintf "olfu %s: %s@." (req_op_name req) m
    | None -> ());
    exit_with (if force_ok then S.Response.Success else resp.S.Response.status)
  in
  match connect with
  | Some socket -> (
    if trace <> None || manifest <> None then
      Format.eprintf
        "olfu: --trace/--manifest are local; with --connect use the \
         daemon's --audit log@.";
    match S.Client.request ~wait_seconds:5. ~socket req with
    | Error msg ->
      Format.eprintf "olfu %s: %s@." (req_op_name req) msg;
      exit 2
    | Ok resp -> finish resp)
  | None ->
    let sink = sink_for ~trace ~manifest in
    let session = S.Session.create () in
    let resp, meta = S.Service.execute session ~sink req in
    print_string resp.S.Response.output;
    (match resp.S.Response.error with
    | Some m -> Format.eprintf "olfu %s: %s@." (req_op_name req) m
    | None -> ());
    on_meta meta;
    (match req.S.Request.body with
    | S.Request.Run r ->
      write_obs ~trace ~manifest
        ~config:(S.Service.config_fields r)
        ~steps:meta.S.Service.steps ~prep:meta.S.Service.prep
        ~extra:meta.S.Service.extras
        ~wall_seconds:resp.S.Response.seconds sink
    | _ -> ());
    exit_with (if force_ok then S.Response.Success else resp.S.Response.status)
