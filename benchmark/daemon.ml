(* The `olfu serve` subprocess of the daemon workloads.

   The daemon is the built CLI binary next to this one in the build tree,
   started directly: never through `dune exec`, whose build lock a
   backgrounded child would inherit.  Every daemon gets a fresh socket
   path, and every exit path asks it to shut down and reaps it: the
   program's at_exit hook stops whatever is still in [live] after an
   exception or a signal. *)

module S = Olfu_service

type t = { pid : int; socket : string }

let cli () =
  let p =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      (Filename.concat "bin" "olfu_cli.exe")
  in
  if Sys.file_exists p then p
  else failwith ("daemon binary not found at " ^ p ^ " (build bin/olfu_cli.exe)")

let live : t list ref = ref []
let sockets = ref 0

let reap ?(grace = 10.) d =
  let deadline = Unix.gettimeofday () +. grace in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.02;
      wait ()
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  try Sys.remove d.socket with Sys_error _ -> ()

(* Ask for a clean stop, then reap.  Callers close their own
   connections first: each daemon worker serves one connection at a
   time, so a shutdown line queued behind open connections would wait. *)
let shutdown d =
  (match S.Client.connect ~wait_seconds:2. d.socket with
  | Ok c ->
    ignore (S.Client.rpc c { S.Request.id = 0; body = S.Request.Shutdown });
    S.Client.close c
  | Error _ -> ());
  reap d

(* [dir] holds the socket and the daemon's log; a relative socket path
   keeps it under the 108-byte limit of Unix socket addresses. *)
let spawn ~dir args =
  incr sockets;
  let socket = Filename.concat dir (Printf.sprintf "d%d.sock" !sockets) in
  let log =
    Unix.openfile
      (Filename.concat dir (Printf.sprintf "d%d.log" !sockets))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let exe = cli () in
  let pid =
    Unix.create_process exe
      (Array.of_list ([ exe; "serve"; "--socket"; socket ] @ args))
      null log log
  in
  Unix.close null;
  Unix.close log;
  let d = { pid; socket } in
  live := d :: !live;
  d

(* [wait] covers a daemon that is still starting. *)
let connect ?(wait = 2.) d = S.Client.connect ~wait_seconds:wait d.socket

(* One request on a connection of its own. *)
let call ?wait d body =
  match connect ?wait d with
  | Error e -> Error e
  | Ok c ->
    Fun.protect
      ~finally:(fun () -> S.Client.close c)
      (fun () -> S.Client.rpc c { S.Request.id = 0; body })

(* Block until the daemon answers a ping. *)
let await d =
  match call ~wait:60. d S.Request.Ping with
  | Ok _ -> ()
  | Error e -> failwith ("daemon did not answer a ping: " ^ e)

let stats d =
  Result.bind (call d S.Request.Stats) (fun r -> Olfu_obs.Json.parse r.S.Response.output)

let pid d = string_of_int d.pid
