module J = Olfu_obs.Json
module Trace = Olfu_obs.Trace
module Manifest = Olfu_obs.Manifest

type config = {
  socket : string;
  workers : int;
  byte_budget : int;
  audit : string option;
}

let default ~socket =
  { socket; workers = 2; byte_budget = 1 lsl 30; audit = None }

type state = {
  cfg : config;
  listen_fd : Unix.file_descr;
  session : Session.t;
  stop : bool Atomic.t;
  served : int Atomic.t;
  audit_m : Mutex.t;
}

let audit_record st (req : Request.t) (resp : Response.t) (meta : Service.meta)
    sink =
  match (st.cfg.audit, req.Request.body) with
  | Some path, Request.Run r ->
    let config =
      Service.config_fields r
      @ [
          ("request_id", J.Int req.Request.id);
          ("cache_hit", J.Bool resp.Response.cache_hit);
          ("status", J.Int (Response.exit_code resp.Response.status));
        ]
    in
    let m =
      Manifest.make ~config ~steps:meta.Service.steps ~prep:meta.Service.prep
        ~extra:meta.Service.extras ~wall_seconds:resp.Response.seconds sink
    in
    Mutex.lock st.audit_m;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock st.audit_m)
      (fun () -> Manifest.append_line m path)
  | _ -> ()

let send oc resp =
  Response.output_line oc resp;
  flush oc

(* Serve one line; [false] means stop reading from this connection. *)
let handle_line st oc line =
  match Request.of_string line with
  | Error msg ->
    send oc (Response.fail ~id:0 ("bad request: " ^ msg));
    true
  | Ok req ->
    let sink =
      match (st.cfg.audit, req.Request.body) with
      | Some _, Request.Run _ -> Trace.create ()
      | _ -> Trace.null
    in
    let resp, meta = Service.execute st.session ~sink req in
    Atomic.incr st.served;
    (match req.Request.body with
    | Request.Shutdown ->
      Atomic.set st.stop true;
      send oc resp;
      (* shutdown (not close) wakes sibling workers blocked on the
         listening socket: close would leave their in-flight accept(2)
         hanging on the still-open file description *)
      (try Unix.shutdown st.listen_fd Unix.SHUTDOWN_ALL
       with Unix.Unix_error _ -> ());
      false
    | _ ->
      send oc resp;
      audit_record st req resp meta sink;
      true)

let handle_conn st fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | exception Sys_error _ -> ()
    | line ->
      if String.trim line = "" then loop ()
      else
        let continue =
          try handle_line st oc line
          with Sys_error _ -> false (* client hung up mid-response *)
        in
        if continue && not (Atomic.get st.stop) then loop ()
  in
  (* every path closes the connection, so a client never waits on a
     descriptor nobody answers; ic and oc share it, close_out flushes and
     closes it, the second close's EBADF is expected *)
  Fun.protect loop ~finally:(fun () ->
      (try close_out oc with Sys_error _ -> ());
      try Unix.close fd with Unix.Unix_error _ -> ())

let accept_loop st =
  let exception Done in
  try
    while not (Atomic.get st.stop) do
      (* poll with a timeout so a worker parked here always notices
         [stop] even if the wake-up shutdown is lost to a race *)
      match Unix.select [ st.listen_fd ] [] [] 0.2 with
      | [], _, _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error _ -> raise Done
      | _ -> (
        match Unix.accept st.listen_fd with
        | fd, _ -> ( try handle_conn st fd with _ -> ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error _ ->
          (* listening socket shut down or unusable: stop *)
          raise Done)
    done
  with Done -> ()

let serve cfg =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket);
  Unix.listen listen_fd 64;
  let st =
    {
      cfg;
      listen_fd;
      session = Session.create ~byte_budget:cfg.byte_budget ();
      stop = Atomic.make false;
      served = Atomic.make 0;
      audit_m = Mutex.create ();
    }
  in
  let extra = max 0 (cfg.workers - 1) in
  let workers = List.init extra (fun _ -> Domain.spawn (fun () -> accept_loop st)) in
  accept_loop st;
  List.iter Domain.join workers;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  try Unix.unlink cfg.socket with Unix.Unix_error _ -> ()
